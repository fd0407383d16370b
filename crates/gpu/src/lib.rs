//! # cactus-gpu
//!
//! An SM/warp-level GPU *performance model* used as the hardware substrate of
//! the Cactus benchmark-suite reproduction (IISWC 2021).
//!
//! The crate plays the role that a physical Nvidia RTX 3080 plus the Nsight
//! Compute profiler play in the paper: workloads describe each kernel launch
//! (grid geometry, warp-instruction mix, memory access streams) and the model
//! produces a per-launch [`metrics::KernelMetrics`] record containing the same
//! metric vector the paper collects in its Table IV — warp occupancy, SM
//! efficiency, L1/L2 hit rates, DRAM read throughput, functional-unit
//! utilizations, instruction-mix fractions, and a four-way stall breakdown —
//! along with the two roofline coordinates, performance in GIPS and
//! instruction intensity in warp instructions per DRAM transaction.
//!
//! ## Architecture
//!
//! * [`device`] — physical device descriptors (SM count, schedulers, clock,
//!   cache geometry, DRAM bandwidth). [`device::Device::rtx3080`] matches the
//!   paper's Table II platform.
//! * [`catalog`] — the named device catalog: stable string ids for every
//!   modeled device, the key space for profile stores and fleet routing.
//! * [`launch`] — kernel launch configuration and the occupancy calculator.
//! * [`instmix`] — warp-instruction mixes by class.
//! * [`access`] — declarative memory access streams (pattern + coalescing).
//! * [`cache`] — a trace-driven set-associative cache simulator plus an
//!   analytic hit-rate model validated against it, composed into an
//!   L1 → L2 → DRAM hierarchy.
//! * [`timing`] — a wave-based SM timing model with occupancy-driven latency
//!   hiding, inspired by the MWP/CWP analytic-GPU-model literature.
//! * [`metrics`] — the Nsight-style per-kernel metric record.
//! * [`kernel`] — the kernel descriptor assembled by workloads, and the
//!   [`kernel::LaunchSink`] they launch it into.
//! * [`engine`] — the [`engine::Gpu`] device that executes launches and
//!   records an execution trace, memoizing repeated launch configurations.
//!   The `cactus-serve` daemon prices every simulation on a fresh engine,
//!   so no memo entry outlives its request.
//! * [`par`] — deterministic parallel fan-out used by the suite runners.
//!
//! Workload code launches into a [`kernel::LaunchSink`] and never sees a
//! device: [`engine::Gpu`] is the sink that prices each launch, and a
//! `Vec<KernelDesc>` is the sink that keeps the launch stream. That stream
//! is how a run leaves its derivation; `cactus-wir`'s `capture` serializes
//! it (the paper's future-work "simulator-compatible instruction traces").
//!
//! ## Example
//!
//! ```
//! use cactus_gpu::prelude::*;
//!
//! let mut gpu = Gpu::new(Device::rtx3080());
//! let kernel = KernelDesc::builder("saxpy")
//!     .launch(LaunchConfig::linear(1 << 20, 256))
//!     .mix(InstructionMix::elementwise(1 << 20, 2))
//!     .stream(AccessStream::read(1 << 20, 4, AccessPattern::Streaming))
//!     .stream(AccessStream::write(1 << 20, 4, AccessPattern::Streaming))
//!     .build();
//! let record = gpu.launch(&kernel);
//! assert!(record.metrics.gips > 0.0);
//! assert!(record.metrics.instruction_intensity > 0.0);
//! ```

pub mod access;
pub mod cache;
pub mod catalog;
pub mod device;
pub mod engine;
pub mod instmix;
pub mod kernel;
pub mod launch;
pub mod metrics;
pub mod par;
pub mod timing;

/// Version of the performance model's parameters and equations. Bump this
/// whenever a change to the device descriptors, cache models, or timing
/// model can alter simulated metrics: serialized profile stores are keyed on
/// it, so stale cached profiles invalidate automatically.
///
/// v2: data-oriented host rework — per-pair-radius colloid neighbor lists,
/// reassociated convolution/force arithmetic and libcall-free
/// minimum-image rounding shift workload float results (and therefore the
/// kernel footprints derived from them) slightly.
pub const MODEL_VERSION: u32 = 2;

/// Convenient re-exports of the types used by nearly every client.
pub mod prelude {
    pub use crate::access::{AccessPattern, AccessStream, Direction};
    pub use crate::device::Device;
    pub use crate::engine::{Gpu, LaunchRecord};
    pub use crate::instmix::InstructionMix;
    pub use crate::kernel::{KernelDesc, KernelDescBuilder, LaunchSink};
    pub use crate::launch::LaunchConfig;
    pub use crate::metrics::KernelMetrics;
}

pub use crate::catalog::{by_id, CatalogEntry, CATALOG};
pub use crate::device::Device;
pub use crate::engine::Gpu;
pub use crate::kernel::LaunchSink;
