//! The memory hierarchy: trace-driven cache simulator, analytic hit-rate
//! model, and the L1 → L2 → DRAM composition.
//!
//! Two models of the same hierarchy coexist:
//!
//! * [`sim::SetAssocCache`] — a conventional set-associative LRU cache
//!   simulator driven by explicit address traces. Exact, but only feasible
//!   for small kernels; used by the test suite and the `trace` validation
//!   path.
//! * [`analytic`] — closed-form steady-state hit rates per
//!   [`crate::access::AccessPattern`]. This is what the engine uses to
//!   process workloads that execute hundreds of billions of warp
//!   instructions.
//!
//! The property-test suite generates synthetic traces per pattern, runs them
//! through the simulator, and asserts the analytic model lands within a
//! tolerance band — the "analytic vs. trace-driven" ablation called out in
//! DESIGN.md.

pub mod analytic;
pub mod hierarchy;
pub mod sim;
pub mod trace;

pub(crate) use hierarchy::{MemoryModel, StreamTraffic, TrafficResult};
pub use sim::SetAssocCache;
