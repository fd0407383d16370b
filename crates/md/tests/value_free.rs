//! Which MD runs launch a stream that no force bit can change.
//!
//! Every MD descriptor is built from sizes: the particle count, the PME
//! grid, the bond and angle counts, and the neighbor list's pair and cell
//! counts. GMS and LMR rebuild that list every 10 steps, so at `tiny` (10
//! steps) and `small` (8 steps) the only rebuild is at step 0, before any
//! force has moved a particle, and the stream is fixed before PME first
//! runs. Each test runs one workload at the suite's seed with the Ewald
//! splitting `alpha` at 0.80 (the suite's) and at 0.85, which changes
//! every reciprocal-space force: the launched streams must be equal and the
//! final positions must differ. DESIGN.md §5h records what this licenses.

use cactus_core::SuiteScale;
use cactus_gpu::kernel::KernelDesc;
use cactus_md::pme::PmeParams;
use cactus_md::system::Vec3;
use cactus_md::workloads::{gromacs_npt, lammps_rhodopsin, MdScale};
use cactus_md::MdEngine;

/// The launch stream and final positions of one suite run with PME's
/// `alpha` replaced.
fn run(
    workload: fn(MdScale, u64) -> MdEngine,
    seed: u64,
    scale: SuiteScale,
    alpha: f64,
) -> (Vec<KernelDesc>, Vec<Vec3>) {
    let (atoms, steps) = scale.md();
    let suite = workload(MdScale { atoms, steps }, seed);
    let mut config = suite.config().clone();
    config.pme = config.pme.map(|p| PmeParams { alpha, ..p });
    let mut engine = MdEngine::new(suite.system().clone(), config);
    let mut launches = Vec::new();
    let _ = engine.run(&mut launches, steps);
    (launches, engine.system().positions.clone())
}

fn assert_stream_is_force_free(workload: fn(MdScale, u64) -> MdEngine, seed: u64) {
    for scale in [SuiteScale::Tiny, SuiteScale::Small] {
        let (stream, positions) = run(workload, seed, scale, 0.80);
        let (perturbed_stream, perturbed_positions) = run(workload, seed, scale, 0.85);
        assert!(!stream.is_empty(), "{scale:?}: the run launches kernels");
        assert!(
            positions != perturbed_positions,
            "{scale:?}: alpha no longer reaches the positions"
        );
        assert!(
            stream == perturbed_stream,
            "{scale:?}: the launch stream depends on the forces"
        );
    }
}

#[test]
fn gms_stream_is_force_free_at_tiny_and_small() {
    assert_stream_is_force_free(gromacs_npt, 42);
}

#[test]
fn lmr_stream_is_force_free_at_tiny_and_small() {
    assert_stream_is_force_free(lammps_rhodopsin, 43);
}
