//! Suite-wide scale presets.
//!
//! The paper profiles full application inputs (32 K-atom proteins, 21 M-
//! vertex graphs, full training epochs) on physical hardware; the
//! CPU-hosted reproduction runs each workload at a reduced scale chosen so
//! that kernel populations, GPU-time distributions and roofline positions
//! — the properties the paper's claims rest on — are preserved (see
//! DESIGN.md §7 and EXPERIMENTS.md for the per-workload mapping).

/// Scale preset for a suite run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteScale {
    /// Seconds-fast inputs for unit and integration tests.
    Tiny,
    /// Mid-sized inputs: large enough for the paper's qualitative shapes
    /// (kernel-class mixes, aggregate roofline positions) to emerge, small
    /// enough for debug-build integration tests.
    Small,
    /// The scale the benchmark harness profiles (release builds).
    Profile,
}

impl SuiteScale {
    /// MD particles and steps. `Tiny` is what every served and benchmarked
    /// `tiny` GMS/LMR/LMC triple runs; `cactus_md::workloads::MdScale::tiny()`
    /// (8 steps) is only that crate's unit-test scale.
    #[must_use]
    pub fn md(self) -> (usize, u32) {
        match self {
            SuiteScale::Tiny => (300, 10),
            SuiteScale::Small => (3000, 8),
            SuiteScale::Profile => (32_000, 30),
        }
    }

    /// R-MAT scale exponent (vertices = 2^scale) for the social-network
    /// BFS input.
    #[must_use]
    pub fn social_scale(self) -> u32 {
        match self {
            SuiteScale::Tiny => 11,
            SuiteScale::Small => 14,
            SuiteScale::Profile => 20,
        }
    }

    /// Road-network grid side.
    #[must_use]
    pub fn road_side(self) -> u32 {
        match self {
            SuiteScale::Tiny => 48,
            SuiteScale::Small => 256,
            SuiteScale::Profile => 1448,
        }
    }

    /// ML batch size / image side / iterations.
    #[must_use]
    pub fn ml(self) -> (usize, usize, usize) {
        match self {
            SuiteScale::Tiny => (2, 8, 2),
            SuiteScale::Small => (4, 16, 2),
            SuiteScale::Profile => (16, 32, 3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_scale_dominates_tiny() {
        assert!(SuiteScale::Profile.md().0 > SuiteScale::Tiny.md().0);
        assert!(SuiteScale::Profile.social_scale() > SuiteScale::Tiny.social_scale());
        assert!(SuiteScale::Profile.road_side() > SuiteScale::Tiny.road_side());
        assert!(SuiteScale::Profile.ml().0 >= SuiteScale::Tiny.ml().0);
    }
}
