//! # cactus-md
//!
//! The molecular-dynamics substrate behind the Cactus `GMS`, `LMR` and
//! `LMC` workloads. It is a real (if compact) MD engine — cell-list +
//! Verlet-list neighbor search, Lennard-Jones / CHARMM-style LJ+Coulomb /
//! colloid pair styles, harmonic bonded terms, PME-style long-range
//! electrostatics built on an in-crate radix-2 FFT, and a velocity-Verlet
//! integrator with Berendsen-style temperature and pressure coupling.
//!
//! Every step of `engine::MdEngine::step` both advances the simulation on
//! the CPU *and* launches the kernel sequence the corresponding production
//! code (Gromacs 2021 / LAMMPS 2020) launches on a GPU, with footprints
//! derived from the step's actual pair counts, grid sizes and atom counts.
//! The three workload presets in [`workloads`] reproduce the kernel
//! populations of the paper's Table I rows: GMS (9 kernels, Gromacs
//! taxonomy), LMR (15 kernels, LAMMPS + PPPM taxonomy) and LMC (9 kernels,
//! colloid taxonomy, no long-range electrostatics).

pub mod engine;
pub mod fft;
pub mod forces;
pub mod integrate;
pub mod neighbor;
#[cfg(test)]
mod observables;
pub mod pme;
pub mod system;
pub mod workloads;

pub use engine::{MdConfig, MdEngine, PairStyle};
pub use system::ParticleSystem;
