//! The three Cactus molecular-simulation workload presets (Table I rows
//! GMS, LMR and LMC), scaled for CPU-hosted execution.
//!
//! | Paper input | Here |
//! |---|---|
//! | GMS: Gromacs 2021, T4 lysozyme + ligand, NPT, 5000 steps | protein-like charged chain in solvent, Gromacs taxonomy, NPT, PME |
//! | LMR: LAMMPS 2020, rhodopsin 32 K atoms, 3000 steps | protein-like charged system, LAMMPS taxonomy, NPT, PPPM |
//! | LMC: LAMMPS 2020, colloid 60 K atoms, 2000 steps | big/small sphere suspension, LAMMPS taxonomy, NVT, no electrostatics |

use crate::engine::{Barostat, KernelTaxonomy, MdConfig, MdEngine, PairStyle, Thermostat};
use crate::pme::PmeParams;
use crate::system::SystemBuilder;

/// Scale knob for the MD workloads: number of particles and profiled steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdScale {
    /// Particles in the box.
    pub atoms: usize,
    /// Steps to profile.
    pub steps: u32,
}

/// GMS: Gromacs-style NPT equilibration of a solvated protein-like system.
#[must_use]
pub fn gromacs_npt(scale: MdScale, seed: u64) -> MdEngine {
    let sys = SystemBuilder::new(scale.atoms)
        .density(0.7)
        .temperature(1.0)
        .seed(seed)
        .build_protein_like(0.15);
    let config = MdConfig {
        dt: 0.002,
        cutoff: 3.0,
        skin: 0.4,
        pair_style: PairStyle::LjCoulombCharmm,
        taxonomy: KernelTaxonomy::Gromacs,
        pme: Some(PmeParams {
            grid: 32,
            alpha: 0.8,
        }),
        thermostat: Some(Thermostat {
            target: 1.0,
            coupling: 0.1,
        }),
        barostat: Some(Barostat {
            target: 1.0,
            coupling: 0.005,
        }),
        neighbor_every: 10,
        energy_every: 20,
    };
    MdEngine::new(sys, config)
}

/// LMR: LAMMPS-style solvated-protein (rhodopsin-class) simulation with
/// PPPM electrostatics.
#[must_use]
pub fn lammps_rhodopsin(scale: MdScale, seed: u64) -> MdEngine {
    let sys = SystemBuilder::new(scale.atoms)
        .density(0.75)
        .temperature(1.0)
        .seed(seed)
        .build_protein_like(0.2);
    let config = MdConfig {
        dt: 0.002,
        cutoff: 4.5,
        skin: 0.3,
        pair_style: PairStyle::LjCoulombCharmm,
        taxonomy: KernelTaxonomy::Lammps,
        pme: Some(PmeParams {
            grid: 32,
            alpha: 0.8,
        }),
        thermostat: Some(Thermostat {
            target: 1.0,
            coupling: 0.1,
        }),
        barostat: Some(Barostat {
            target: 1.0,
            coupling: 0.005,
        }),
        neighbor_every: 10,
        energy_every: 20,
    };
    MdEngine::new(sys, config)
}

/// LMC: LAMMPS-style colloid suspension (large/small sphere mixture), NVT,
/// no long-range electrostatics.
#[must_use]
pub fn lammps_colloid(scale: MdScale, seed: u64) -> MdEngine {
    let sys = SystemBuilder::new(scale.atoms)
        .density(0.4)
        .temperature(1.0)
        .seed(seed)
        .build_colloid(0.2);
    let config = MdConfig {
        dt: 0.002,
        cutoff: 1.6, // multiplied by the pair σ inside the colloid style
        skin: 0.4,
        pair_style: PairStyle::Colloid,
        taxonomy: KernelTaxonomy::Lammps,
        pme: None,
        thermostat: Some(Thermostat {
            target: 1.0,
            coupling: 0.1,
        }),
        barostat: None,
        // Mobile large spheres outrun the Verlet skin quickly; colloid
        // runs rebuild their lists far more often than protein runs.
        neighbor_every: 4,
        energy_every: 20,
    };
    MdEngine::new(sys, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_gpu::{Device, Gpu};
    use cactus_profiler::Profile;
    use std::collections::BTreeSet;

    /// This crate's own test scale: 300 particles, 8 steps. It is *not*
    /// what a served or benchmarked `tiny` triple runs — that is
    /// `cactus_core::SuiteScale::Tiny.md()`, 300 particles for 10 steps.
    const TINY: MdScale = MdScale {
        atoms: 300,
        steps: 8,
    };

    fn kernel_names(engine: &mut MdEngine, steps: u32) -> BTreeSet<String> {
        let mut launches = Vec::new();
        let _ = engine.run(&mut launches, steps);
        launches.iter().map(|d| d.name().to_owned()).collect()
    }

    #[test]
    fn gms_executes_nine_kernels() {
        let mut e = gromacs_npt(TINY, 1);
        let mut gpu = Gpu::new(Device::rtx3080());
        let _ = e.run(&mut gpu, 12);
        let names: BTreeSet<&str> = gpu.records().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names.len(), 9, "{names:?}");
        assert_eq!(Profile::from_records(gpu.records()).kernel_count(), 9);
    }

    #[test]
    fn lmr_executes_fifteen_kernels() {
        let mut e = lammps_rhodopsin(TINY, 2);
        let names = kernel_names(&mut e, 12);
        assert_eq!(names.len(), 15, "{names:?}");
    }

    #[test]
    fn lmc_executes_nine_kernels() {
        let mut e = lammps_colloid(TINY, 3);
        let names = kernel_names(&mut e, 25);
        assert_eq!(names.len(), 9, "{names:?}");
    }

    #[test]
    fn lmr_and_lmc_share_code_but_differ_in_kernels() {
        // The paper's Observation 3: same code base (LAMMPS), different
        // inputs → different kernel sets.
        let mut r = lammps_rhodopsin(TINY, 4);
        let mut c = lammps_colloid(TINY, 4);
        let rn = kernel_names(&mut r, 10);
        let cn = kernel_names(&mut c, 10);
        assert_ne!(rn, cn);
        assert!(rn.contains("pppm_make_rho"));
        assert!(!cn.contains("pppm_make_rho"));
        assert!(cn.contains("pair_colloid_kernel"));
        assert!(!rn.contains("pair_colloid_kernel"));
    }

    #[test]
    fn workloads_stay_numerically_sane() {
        let mut launches = Vec::new();
        for mut engine in [
            gromacs_npt(TINY, 7),
            lammps_rhodopsin(TINY, 7),
            lammps_colloid(TINY, 7),
        ] {
            let stats = engine.run(&mut launches, 15);
            assert!(stats.temperature.is_finite() && stats.temperature > 0.0);
            assert!(stats.potential_energy.is_finite());
        }
    }
}
