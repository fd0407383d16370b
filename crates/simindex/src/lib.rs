//! `cactus-simindex` — the online kernel-similarity subsystem.
//!
//! The batch analysis half of the repo answers "how do GPU workloads
//! relate" once, offline (FAMD + Ward clustering, Figure 9). This crate
//! turns that into a query: an indexed, mutable store of kernel metric
//! vectors that serves nearest-neighbor, cluster, and proxy-subset
//! questions online through `cactus-serve`'s `/v1/similar`.
//!
//! Four pieces, one per module:
//!
//! * [`encode`] — the feature pipeline. A frozen [`encode::Encoder`]
//!   (fitted `cactus_analysis::famd::FamdModel` + roofline labels)
//!   projects a `KernelMetrics` record or an inline `MetricId::ALL`-order vector into
//!   the truncated FAMD space, bit-identically at index time and query
//!   time.
//! * [`index`] — the pruned **exact** nearest-neighbor index
//!   ([`index::SimIndex`]): coarse k-means-style cells over the stored
//!   coordinates with triangle-inequality pruning. Results are
//!   bit-identical to brute force (property-tested) while probing a small
//!   fraction of the stored vectors.
//! * [`cluster`] — incremental family maintenance ([`cluster::ClusterSet`]):
//!   nearest-centroid assignment, spawn-on-distance, and a staleness
//!   counter that triggers a bounded local Ward re-cluster instead of a
//!   full rebuild.
//! * [`proxy`] — the greedy proxy-subset selector ([`proxy::select`]): the
//!   minimal kernel set covering every cluster within a distance budget —
//!   the paper's "which benchmarks do you actually need to run" answer.

pub mod cluster;
pub mod encode;
pub mod index;
pub mod proxy;

pub use cluster::{Assignment, ClusterConfig, ClusterSet};
pub use encode::{EncodeError, Encoder, VECTOR_DIMS};
pub use index::{IndexError, IndexStats, Neighbor, SearchResult, SimIndex};
pub use proxy::Proxy;
