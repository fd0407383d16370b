//! Kernel descriptors — the interface between workloads and the device
//! model.

use crate::access::AccessStream;
use crate::instmix::InstructionMix;
use crate::launch::LaunchConfig;

/// Full description of one kernel launch: name, grid geometry, warp
/// instruction mix, and global-memory access streams.
///
/// Workloads build these with [`KernelDesc::builder`]; the
/// [`crate::engine::Gpu`] executes them.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    name: String,
    launch: LaunchConfig,
    mix: InstructionMix,
    streams: Vec<AccessStream>,
    dependency_fraction: f64,
}

impl KernelDesc {
    /// Start building a kernel descriptor with the given kernel name.
    ///
    /// Kernel names identify kernels across invocations (the profiler
    /// aggregates by name), so give distinct specializations distinct names,
    /// as real GPU libraries do (`volta_sgemm_128x64_nn`, …).
    #[must_use]
    pub fn builder(name: impl Into<String>) -> KernelDescBuilder {
        KernelDescBuilder {
            name: name.into(),
            launch: LaunchConfig::new(1, 128),
            mix: InstructionMix::default(),
            streams: Vec::new(),
            dependency_fraction: 0.35,
        }
    }

    /// Kernel name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Launch configuration.
    #[must_use]
    pub fn launch(&self) -> &LaunchConfig {
        &self.launch
    }

    /// Warp-instruction mix.
    #[must_use]
    pub fn mix(&self) -> &InstructionMix {
        &self.mix
    }

    /// Memory access streams.
    #[must_use]
    pub fn streams(&self) -> &[AccessStream] {
        &self.streams
    }

    /// Fraction of instructions that serialize on their producer.
    #[must_use]
    pub fn dependency_fraction(&self) -> f64 {
        self.dependency_fraction
    }
}

/// Builder for [`KernelDesc`].
#[derive(Debug, Clone)]
pub struct KernelDescBuilder {
    name: String,
    launch: LaunchConfig,
    mix: InstructionMix,
    streams: Vec<AccessStream>,
    dependency_fraction: f64,
}

impl KernelDescBuilder {
    /// Set the launch configuration.
    #[must_use]
    pub fn launch(mut self, launch: LaunchConfig) -> Self {
        self.launch = launch;
        self
    }

    /// Set the warp-instruction mix.
    #[must_use]
    pub fn mix(mut self, mix: InstructionMix) -> Self {
        self.mix = mix;
        self
    }

    /// Add one memory access stream.
    #[must_use]
    pub fn stream(mut self, stream: AccessStream) -> Self {
        self.streams.push(stream);
        self
    }

    /// Set the dependency fraction (default 0.35). Higher values model
    /// tighter dependency chains (e.g. reductions, pointer chasing).
    #[must_use]
    pub fn dependency_fraction(mut self, f: f64) -> Self {
        self.dependency_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Finish building.
    ///
    /// The builder keeps the descriptor internally consistent: the load and
    /// store instruction counts of the mix are raised to at least the number
    /// of warp accesses declared by the streams, so a workload cannot
    /// declare memory traffic without the instructions that generate it.
    #[must_use]
    pub fn build(mut self) -> KernelDesc {
        let declared_loads: u64 = self
            .streams
            .iter()
            .filter(|s| s.direction == crate::access::Direction::Read)
            .map(|s| s.warp_accesses)
            .sum();
        let declared_stores: u64 = self
            .streams
            .iter()
            .filter(|s| s.direction == crate::access::Direction::Write)
            .map(|s| s.warp_accesses)
            .sum();
        self.mix.load = self.mix.load.max(declared_loads);
        self.mix.store = self.mix.store.max(declared_stores);

        KernelDesc {
            name: self.name,
            launch: self.launch,
            mix: self.mix,
            streams: self.streams,
            dependency_fraction: self.dependency_fraction,
        }
    }
}

/// Where a derivation sends its launches. Workload code takes
/// `&mut dyn LaunchSink` and sees no device: a [`crate::engine::Gpu`]
/// prices each launch, a `Vec<KernelDesc>` keeps the launch stream.
pub trait LaunchSink {
    /// Accept one kernel launch.
    fn launch(&mut self, kernel: &KernelDesc);
}

impl LaunchSink for Vec<KernelDesc> {
    fn launch(&mut self, kernel: &KernelDesc) {
        self.push(kernel.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessPattern, AccessStream};

    #[test]
    fn builder_defaults() {
        let k = KernelDesc::builder("k").build();
        assert_eq!(k.name(), "k");
        assert!((k.dependency_fraction() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn build_reconciles_mix_with_streams() {
        let k = KernelDesc::builder("k")
            .stream(AccessStream::read(3200, 4, AccessPattern::Streaming))
            .stream(AccessStream::write(3200, 4, AccessPattern::Streaming))
            .build();
        assert_eq!(k.mix().load, 100);
        assert_eq!(k.mix().store, 100);
    }

    #[test]
    fn explicit_mix_larger_than_streams_is_kept() {
        let k = KernelDesc::builder("k")
            .mix(InstructionMix::new().with_load(500))
            .stream(AccessStream::read(3200, 4, AccessPattern::Streaming))
            .build();
        assert_eq!(k.mix().load, 500);
    }

    #[test]
    fn dependency_fraction_is_clamped() {
        let k = KernelDesc::builder("k").dependency_fraction(7.0).build();
        assert_eq!(k.dependency_fraction(), 1.0);
    }
}
