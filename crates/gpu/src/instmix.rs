//! Warp-instruction mixes.
//!
//! A kernel launch's dynamic instruction stream is summarized as counts of
//! *warp instructions* (one warp instruction = 32 thread instructions, as in
//! the paper) per functional class. Workloads derive these counts
//! analytically from the work they actually perform (e.g. a GEMM tile kernel
//! contributes 2·M·N·K/32 FMA thread-ops → M·N·K/16 warp FMA instructions).

/// Warp-instruction counts for one kernel launch, by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstructionMix {
    /// FP32 arithmetic (add/mul/FMA) warp instructions.
    pub fp32: u64,
    /// Special-function (transcendental: exp, rsqrt, sin…) warp instructions.
    pub special: u64,
    /// Integer / address arithmetic warp instructions.
    pub int: u64,
    /// Control-flow (branch) warp instructions.
    pub branch: u64,
    /// Global/local memory load warp instructions.
    pub load: u64,
    /// Global/local memory store warp instructions.
    pub store: u64,
    /// Shared-memory load/store warp instructions.
    pub shared: u64,
    /// Barrier/synchronization warp instructions.
    pub sync: u64,
    /// Anything else (predicate manipulation, moves…).
    pub misc: u64,
}

impl InstructionMix {
    /// An empty mix.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Mix for an elementwise kernel over `n` threads performing
    /// `flops_per_elem` FP32 operations each (plus the implied address
    /// arithmetic and loop control), expressed in warp instructions.
    #[must_use]
    pub fn elementwise(n: u64, flops_per_elem: u64) -> Self {
        let warps = n.div_ceil(32);
        Self {
            fp32: warps * flops_per_elem,
            int: warps * 4,
            branch: warps,
            misc: warps,
            ..Self::default()
        }
    }

    /// Total warp instructions in the launch.
    #[must_use]
    pub(crate) fn total(&self) -> u64 {
        self.fp32
            + self.special
            + self.int
            + self.branch
            + self.load
            + self.store
            + self.shared
            + self.sync
            + self.misc
    }

    /// Fraction of branch instructions (a Table IV metric).
    #[must_use]
    pub(crate) fn fraction_branches(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.branch as f64 / t as f64
        }
    }

    /// Fraction of memory (load/store, global + shared) instructions
    /// (a Table IV metric).
    #[must_use]
    pub(crate) fn fraction_ldst(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.load + self.store + self.shared) as f64 / t as f64
        }
    }
}

/// Builder-style helpers so workload code reads declaratively.
impl InstructionMix {
    /// Set FP32 count.
    #[must_use]
    pub fn with_fp32(mut self, n: u64) -> Self {
        self.fp32 = n;
        self
    }
    /// Set special-function count.
    #[must_use]
    pub fn with_special(mut self, n: u64) -> Self {
        self.special = n;
        self
    }
    /// Set integer count.
    #[must_use]
    pub fn with_int(mut self, n: u64) -> Self {
        self.int = n;
        self
    }
    /// Set branch count.
    #[must_use]
    pub fn with_branch(mut self, n: u64) -> Self {
        self.branch = n;
        self
    }
    /// Set global-load count.
    #[must_use]
    pub fn with_load(mut self, n: u64) -> Self {
        self.load = n;
        self
    }
    /// Set shared-memory count.
    #[must_use]
    pub fn with_shared(mut self, n: u64) -> Self {
        self.shared = n;
        self
    }
    /// Set synchronization count.
    #[must_use]
    pub fn with_sync(mut self, n: u64) -> Self {
        self.sync = n;
        self
    }
    /// Set miscellaneous count.
    #[must_use]
    pub fn with_misc(mut self, n: u64) -> Self {
        self.misc = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_all_classes() {
        let mut mix = InstructionMix::new()
            .with_fp32(10)
            .with_int(5)
            .with_branch(2)
            .with_load(3)
            .with_shared(4)
            .with_sync(1)
            .with_special(2)
            .with_misc(2);
        mix.store = 1;
        assert_eq!(mix.total(), 30);
    }

    #[test]
    fn fractions() {
        let mix = InstructionMix::new()
            .with_branch(1)
            .with_load(2)
            .with_fp32(7);
        assert!((mix.fraction_branches() - 0.1).abs() < 1e-12);
        assert!((mix.fraction_ldst() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn fractions_of_empty_mix_are_zero() {
        let mix = InstructionMix::new();
        assert_eq!(mix.fraction_branches(), 0.0);
        assert_eq!(mix.fraction_ldst(), 0.0);
    }

    #[test]
    fn elementwise_shape() {
        let mix = InstructionMix::elementwise(3200, 3);
        assert_eq!(mix.fp32, 300);
        assert_eq!(mix.branch, 100);
    }
}
