//! # cactus-graph
//!
//! The graph-analytics substrate behind the Cactus `GST` and `GRU`
//! workloads: CSR graphs, scalable generators for the two input classes the
//! paper uses (a power-law social network and a large-diameter road
//! network), and a Gunrock-style bulk-synchronous frontier BFS whose kernel
//! decomposition is lowered onto the [`cactus_gpu`] device model.
//!
//! The BFS really computes shortest hop distances (validated against a CPU
//! reference); every frontier iteration additionally launches the kernels a
//! Gunrock-class library would launch, with instruction and memory-traffic
//! footprints derived from the actual frontier and edge counts of that
//! iteration. Because the kernel *selection* depends on frontier shape,
//! different inputs execute different kernel sets, reproducing the paper's
//! Observation 3 (GST runs 12 distinct kernels, GRU 8).

pub mod bfs;
pub mod csr;
pub mod generators;

pub use bfs::{gunrock_bfs, BfsRun};
pub use csr::CsrGraph;
