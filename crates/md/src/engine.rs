//! The MD engine: advances the simulation and launches the kernel sequence
//! the corresponding production code (Gromacs / LAMMPS) launches per step.

use cactus_gpu::access::{AccessPattern, AccessStream, Direction};
use cactus_gpu::instmix::InstructionMix;
use cactus_gpu::kernel::KernelDesc;
use cactus_gpu::launch::LaunchConfig;
use cactus_gpu::LaunchSink;

use crate::forces::{self, ForceStats};
use crate::integrate;
use crate::neighbor::NeighborList;
use crate::pme::{PmeParams, PmeWorkspace};
use crate::system::ParticleSystem;

/// Short-range pair interaction style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairStyle {
    /// Plain truncated LJ. No workload runs it: `MdConfig::default()` picks it for tests.
    LjCut,
    /// CHARMM-style LJ + erfc-damped Coulomb (pairs with PME).
    LjCoulombCharmm,
    /// Colloid: size-asymmetric LJ, split into colloid and solvent kernels.
    Colloid,
}

/// Which production code's kernel taxonomy the lowering mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum KernelTaxonomy {
    /// Gromacs 2021 (`nbnxn_*`, `pme_*`, fused NPT scaling).
    Gromacs,
    /// LAMMPS 2020 (`pair_*`, `neigh_*`, `pppm_*`, `fix_*`).
    Lammps,
}

/// Temperature coupling parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Thermostat {
    /// Target temperature.
    pub target: f64,
    /// `dt / tau` coupling strength.
    pub coupling: f64,
}

/// Pressure coupling parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Barostat {
    /// Target pressure.
    pub target: f64,
    /// `dt / tau` coupling strength.
    pub coupling: f64,
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MdConfig {
    /// Integration time step.
    pub dt: f64,
    /// Pair cutoff radius (for `Colloid`, a multiple of the pair σ).
    pub cutoff: f64,
    /// Verlet skin.
    pub skin: f64,
    /// Short-range pair style.
    pub pair_style: PairStyle,
    /// Kernel naming/decomposition taxonomy.
    pub(crate) taxonomy: KernelTaxonomy,
    /// Long-range electrostatics (only meaningful for charged systems).
    pub pme: Option<PmeParams>,
    /// Optional temperature coupling.
    pub(crate) thermostat: Option<Thermostat>,
    /// Optional pressure coupling.
    pub(crate) barostat: Option<Barostat>,
    /// Rebuild the neighbor list every this many steps.
    pub neighbor_every: u32,
    /// Reduce energies/temperature every this many steps.
    pub energy_every: u32,
}

impl Default for MdConfig {
    fn default() -> Self {
        Self {
            dt: 0.002,
            cutoff: 2.5,
            skin: 0.4,
            pair_style: PairStyle::LjCut,
            taxonomy: KernelTaxonomy::Lammps,
            pme: None,
            thermostat: None,
            barostat: None,
            neighbor_every: 10,
            energy_every: 20,
        }
    }
}

/// Per-step observables.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepStats {
    /// Potential energy (pair + bonded + reciprocal if enabled).
    pub potential_energy: f64,
    /// Instantaneous temperature after the step.
    pub temperature: f64,
    /// Pairs inside the cutoff this step.
    pub pairs: u64,
}

/// The MD engine.
#[derive(Debug, Clone)]
pub struct MdEngine {
    sys: ParticleSystem,
    config: MdConfig,
    neighbor_list: Option<NeighborList>,
    /// Built by the first step that evaluates PME, reused by every later one.
    pme: Option<PmeWorkspace>,
    step_count: u64,
}

impl MdEngine {
    /// Create an engine over a system.
    #[must_use]
    pub fn new(sys: ParticleSystem, config: MdConfig) -> Self {
        Self {
            sys,
            config,
            neighbor_list: None,
            pme: None,
            step_count: 0,
        }
    }

    /// The simulated system.
    #[must_use]
    pub fn system(&self) -> &ParticleSystem {
        &self.sys
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &MdConfig {
        &self.config
    }

    /// Run `steps` steps, launching kernels into `gpu`; returns the stats of
    /// the final step.
    pub fn run(&mut self, gpu: &mut dyn LaunchSink, steps: u32) -> StepStats {
        let mut last = StepStats::default();
        for _ in 0..steps {
            last = self.step(gpu);
        }
        last
    }

    /// Advance one step.
    pub(crate) fn step(&mut self, gpu: &mut dyn LaunchSink) -> StepStats {
        let n = self.sys.len();
        let taxonomy = self.config.taxonomy;
        let mut potential = 0.0;

        // --- Integrate: first half-kick + drift -------------------------
        integrate::verlet_first_half(&mut self.sys, self.config.dt);
        gpu.launch(&integrate_kernel(taxonomy, n, true));

        // --- Neighbor search --------------------------------------------
        let rebuild = self.neighbor_list.is_none()
            || self
                .step_count
                .is_multiple_of(u64::from(self.config.neighbor_every.max(1)));
        if rebuild {
            // The colloid style's cutoff is a multiple of the pair sigma;
            // use the per-pair-radius "multi" list so small-small pairs are
            // only stored out to their own short range instead of the
            // largest pair's.
            let nl = match self.config.pair_style {
                PairStyle::Colloid => {
                    NeighborList::build_multi(&self.sys, self.config.cutoff, self.config.skin)
                }
                _ => NeighborList::build(&self.sys, self.config.cutoff, self.config.skin),
            };
            for k in neighbor_kernels(taxonomy, n, nl.num_pairs(), nl.cells_per_side()) {
                gpu.launch(&k);
            }
            self.neighbor_list = Some(nl);
        }
        let nl = self.neighbor_list.as_ref().expect("list built above");

        // --- Forces -------------------------------------------------------
        self.sys.clear_forces();
        if taxonomy == KernelTaxonomy::Gromacs {
            gpu.launch(&clear_buffer_kernel(n));
        }

        let stats = match self.config.pair_style {
            PairStyle::LjCut => {
                let s = forces::lj_cut(&mut self.sys, nl, self.config.cutoff);
                gpu.launch(&pair_kernel(taxonomy, "lj_cut", &s, n, false));
                s
            }
            PairStyle::LjCoulombCharmm => {
                let alpha = self.config.pme.map_or(0.8, |p| p.alpha);
                let s = forces::lj_coulomb_cut(&mut self.sys, nl, self.config.cutoff, alpha);
                gpu.launch(&pair_kernel(taxonomy, "coul_long", &s, n, true));
                s
            }
            PairStyle::Colloid => {
                let s = forces::colloid(&mut self.sys, nl, self.config.cutoff);
                // Split the pair population into colloid-involved and
                // solvent-solvent kernels, as LAMMPS' hybrid style does.
                let n_big = self.sys.sigmas.iter().filter(|&&sg| sg > 1.0).count();
                let big_frac = (2.0 * n_big as f64 / n.max(1) as f64).clamp(0.0, 1.0);
                let big_pairs = ForceStats {
                    potential_energy: 0.0,
                    pairs_in_cutoff: (s.pairs_in_cutoff as f64 * big_frac) as u64,
                    pairs_examined: (s.pairs_examined as f64 * big_frac) as u64,
                };
                let small_pairs = ForceStats {
                    potential_energy: 0.0,
                    pairs_in_cutoff: s.pairs_in_cutoff - big_pairs.pairs_in_cutoff,
                    pairs_examined: s.pairs_examined - big_pairs.pairs_examined,
                };
                gpu.launch(&pair_kernel(taxonomy, "colloid", &big_pairs, n, false));
                gpu.launch(&pair_kernel(taxonomy, "lj_cut", &small_pairs, n, false));
                s
            }
        };
        potential += stats.potential_energy;

        // --- Bonded terms ---------------------------------------------------
        if !self.sys.bonds.is_empty() {
            potential += forces::bonds(&mut self.sys);
            if !self.sys.angles.is_empty() {
                potential += forces::angles(&mut self.sys);
            }
            for k in bonded_kernels(taxonomy, self.sys.bonds.len(), self.sys.angles.len(), n) {
                gpu.launch(&k);
            }
        }

        // --- Long-range electrostatics ---------------------------------------
        if let Some(params) = self.config.pme {
            if self.sys.is_charged() {
                let pme = self.pme.get_or_insert_with(|| PmeWorkspace::new(params));
                potential += pme.reciprocal(&mut self.sys);
                for k in pme_kernels(taxonomy, n, params.grid) {
                    gpu.launch(&k);
                }
            }
        }

        // --- Integrate: second half-kick ------------------------------------
        // Gromacs uses a single fused leapfrog update; LAMMPS launches a
        // distinct final-integrate kernel.
        integrate::verlet_second_half(&mut self.sys, self.config.dt);
        if taxonomy == KernelTaxonomy::Lammps {
            gpu.launch(&integrate_kernel(taxonomy, n, false));
        }

        // --- Couplings ---------------------------------------------------------
        let coupled = self.config.thermostat.is_some() || self.config.barostat.is_some();
        if let Some(t) = self.config.thermostat {
            let _ = integrate::berendsen_thermostat(&mut self.sys, t.target, t.coupling);
        }
        if let Some(b) = self.config.barostat {
            let _ = integrate::berendsen_barostat(&mut self.sys, -potential, b.target, b.coupling);
        }
        if coupled {
            gpu.launch(&coupling_kernel(taxonomy, n));
        }

        // --- Periodic energy reduction ------------------------------------------
        // Gromacs accumulates energies inside the nonbonded kernel; LAMMPS
        // runs explicit compute reductions.
        if taxonomy == KernelTaxonomy::Lammps
            && self
                .step_count
                .is_multiple_of(u64::from(self.config.energy_every.max(1)))
        {
            gpu.launch(&reduce_kernel(taxonomy, n));
        }

        self.step_count += 1;
        StepStats {
            potential_energy: potential,
            temperature: self.sys.temperature(),
            pairs: stats.pairs_in_cutoff,
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel lowering
// ---------------------------------------------------------------------------

fn positions_ws(n: usize) -> u64 {
    (n * 3 * 4) as u64 // float3 positions
}

fn integrate_kernel(tax: KernelTaxonomy, n: usize, first: bool) -> KernelDesc {
    let name = match (tax, first) {
        (KernelTaxonomy::Gromacs, true) => "leapfrog_integrate_kernel",
        (KernelTaxonomy::Gromacs, false) => "settle_constraints_kernel",
        (KernelTaxonomy::Lammps, true) => "fix_nve_initial_integrate",
        (KernelTaxonomy::Lammps, false) => "fix_nve_final_integrate",
    };
    let n = n as u64;
    KernelDesc::builder(name)
        .launch(LaunchConfig::linear(n, 256))
        .mix(InstructionMix::elementwise(n, 9))
        .stream(AccessStream::read(n * 3, 4, AccessPattern::Streaming))
        .stream(AccessStream::read(n * 3, 4, AccessPattern::Streaming))
        .stream(AccessStream::write(n * 3, 4, AccessPattern::Streaming))
        .dependency_fraction(0.3)
        .build()
}

fn clear_buffer_kernel(n: usize) -> KernelDesc {
    let n = n as u64;
    KernelDesc::builder("nbnxn_buffer_clear")
        .launch(LaunchConfig::linear(n * 3, 256))
        .mix(InstructionMix::elementwise(n * 3, 0))
        .stream(AccessStream::write(n * 3, 4, AccessPattern::Streaming))
        .build()
}

fn neighbor_kernels(
    tax: KernelTaxonomy,
    n: usize,
    pairs: u64,
    cells_per_side: usize,
) -> Vec<KernelDesc> {
    let n64 = n as u64;
    let cells = (cells_per_side as u64).pow(3);
    match tax {
        KernelTaxonomy::Gromacs => {
            // Gromacs prunes the pair list on the GPU.
            let warps = pairs.div_ceil(32).max(1);
            vec![KernelDesc::builder("nbnxn_kernel_prune")
                .launch(LaunchConfig::linear(pairs.max(32), 128).with_registers(48))
                .mix(
                    InstructionMix::new()
                        .with_fp32(warps * 10)
                        .with_int(warps * 8)
                        .with_branch(warps * 3),
                )
                .stream(AccessStream::raw(
                    Direction::Read,
                    warps * 2,
                    8.0,
                    AccessPattern::HotCold {
                        hot_fraction: 0.8,
                        hot_bytes: 96 * 1024,
                        cold_bytes: positions_ws(n),
                    },
                ))
                .stream(AccessStream::write(
                    pairs.max(32),
                    4,
                    AccessPattern::Streaming,
                ))
                .dependency_fraction(0.4)
                .build()]
        }
        KernelTaxonomy::Lammps => {
            let warps_n = n64.div_ceil(32).max(1);
            let warps_p = pairs.div_ceil(32).max(1);
            vec![
                KernelDesc::builder("neigh_bin_atoms")
                    .launch(LaunchConfig::linear(n64, 256))
                    .mix(InstructionMix::elementwise(n64, 4))
                    .stream(AccessStream::read(n64 * 3, 4, AccessPattern::Streaming))
                    .stream(AccessStream::raw(
                        Direction::Write,
                        warps_n,
                        16.0,
                        AccessPattern::RandomUniform {
                            working_set_bytes: cells * 8,
                        },
                    ))
                    .build(),
                KernelDesc::builder("neigh_stencil_build")
                    .launch(LaunchConfig::linear(cells.max(32), 128))
                    .mix(InstructionMix::elementwise(cells.max(32), 6))
                    .stream(AccessStream::read(
                        cells.max(32),
                        8,
                        AccessPattern::Streaming,
                    ))
                    .stream(AccessStream::write(
                        cells.max(32),
                        8,
                        AccessPattern::Streaming,
                    ))
                    .build(),
                KernelDesc::builder("neigh_build_half")
                    .launch(LaunchConfig::linear(n64, 128).with_registers(48))
                    .mix(
                        InstructionMix::new()
                            .with_fp32(warps_p * 10)
                            .with_int(warps_p * 8)
                            .with_branch(warps_p * 3),
                    )
                    .stream(AccessStream::raw(
                        Direction::Read,
                        warps_p * 2,
                        10.0,
                        AccessPattern::RandomUniform {
                            working_set_bytes: positions_ws(n),
                        },
                    ))
                    .stream(AccessStream::write(
                        pairs.max(32),
                        4,
                        AccessPattern::Streaming,
                    ))
                    .dependency_fraction(0.45)
                    .build(),
            ]
        }
    }
}

fn pair_kernel(
    tax: KernelTaxonomy,
    style: &str,
    stats: &ForceStats,
    atoms: usize,
    coulomb: bool,
) -> KernelDesc {
    // Gromacs' cluster-pair kernels evaluate roughly twice the pruned
    // pair count (8x4 cluster granularity keeps out-of-range pairs).
    let cluster_factor = if tax == KernelTaxonomy::Gromacs { 2 } else { 1 };
    let pairs = (stats.pairs_examined * cluster_factor).max(32);
    let warps = pairs.div_ceil(32).max(1);
    let name = match (tax, style) {
        (KernelTaxonomy::Gromacs, _) => "nbnxn_kernel_ElecEw_VdwLJ_F_cuda".to_owned(),
        (KernelTaxonomy::Lammps, s) => format!("pair_{s}_kernel"),
    };

    // Flop weights per warp-pair: LJ with mixing and virial ≈ 30 thread
    // flops, erfc-damped Coulomb adds ≈ 25 more; the Gromacs cluster
    // kernels additionally evaluate out-of-range cluster pairs.
    let fp_per_pair = if style == "colloid" {
        // Integrated-Hamaker sphere-sphere interactions are much more
        // expensive per pair than point LJ.
        60
    } else {
        match (tax, coulomb) {
            (KernelTaxonomy::Gromacs, true) => 70,
            (KernelTaxonomy::Gromacs, false) => 45,
            (KernelTaxonomy::Lammps, true) => 95,
            (KernelTaxonomy::Lammps, false) => 30,
        }
    };
    let special = if coulomb { warps * 3 } else { warps };

    let mut builder = KernelDesc::builder(name)
        .launch(
            LaunchConfig::linear(pairs, 128)
                .with_registers(if tax == KernelTaxonomy::Gromacs {
                    72
                } else {
                    56
                })
                .with_shared_mem(if tax == KernelTaxonomy::Gromacs {
                    24 * 1024
                } else {
                    0
                }),
        )
        .dependency_fraction(0.4);

    match tax {
        KernelTaxonomy::Gromacs => {
            // nbnxn cluster kernels: shared-memory tiles give heavy data
            // reuse; most traffic stays on-chip → compute-intensive.
            builder = builder
                .mix(
                    InstructionMix::new()
                        .with_fp32(warps * fp_per_pair)
                        .with_special(special + warps)
                        .with_int(warps * 10)
                        .with_shared(warps * 16)
                        .with_sync(warps / 8)
                        .with_branch(warps * 2),
                )
                .stream(AccessStream::raw(
                    Direction::Read,
                    warps / 4,
                    6.0,
                    AccessPattern::HotCold {
                        hot_fraction: 0.85,
                        hot_bytes: 96 * 1024,
                        cold_bytes: positions_ws(atoms),
                    },
                ))
                .stream(AccessStream::raw(
                    Direction::Write,
                    (atoms as u64 * 3).div_ceil(32).max(1),
                    4.0,
                    AccessPattern::Streaming,
                ));
        }
        KernelTaxonomy::Lammps => {
            // Neighbor-list gather per pair: more global traffic, sits
            // nearer the elbow (and on the memory side for cheap styles).
            builder = builder
                .mix(
                    InstructionMix::new()
                        .with_fp32(warps * fp_per_pair)
                        .with_special(special)
                        .with_int(warps * 12)
                        .with_branch(warps * 3),
                )
                .stream(AccessStream::raw(
                    Direction::Read,
                    warps,
                    7.0,
                    AccessPattern::HotCold {
                        hot_fraction: 0.6,
                        hot_bytes: 128 * 1024,
                        cold_bytes: positions_ws(atoms) * 2,
                    },
                ))
                .stream(AccessStream::raw(
                    Direction::Read,
                    warps,
                    4.0,
                    AccessPattern::Streaming,
                ))
                .stream(AccessStream::raw(
                    Direction::Write,
                    (atoms as u64 * 3).div_ceil(32).max(1),
                    4.0,
                    AccessPattern::Streaming,
                ));
        }
    }
    builder.build()
}

fn bonded_kernels(tax: KernelTaxonomy, bonds: usize, angles: usize, n: usize) -> Vec<KernelDesc> {
    let make = |name: &str, count: usize| {
        let c = (count as u64).max(32);
        let warps = c.div_ceil(32);
        KernelDesc::builder(name)
            .launch(LaunchConfig::linear(c, 128))
            .mix(
                InstructionMix::new()
                    .with_fp32(warps * 20)
                    .with_special(warps * 2)
                    .with_int(warps * 6)
                    .with_branch(warps),
            )
            .stream(AccessStream::raw(
                Direction::Read,
                warps * 2,
                12.0,
                AccessPattern::RandomUniform {
                    working_set_bytes: positions_ws(n),
                },
            ))
            .stream(AccessStream::raw(
                Direction::Write,
                warps * 2,
                12.0,
                AccessPattern::RandomUniform {
                    working_set_bytes: positions_ws(n),
                },
            ))
            .dependency_fraction(0.5)
            .build()
    };
    match tax {
        KernelTaxonomy::Gromacs => vec![make("bonded_force_kernel", bonds + angles)],
        KernelTaxonomy::Lammps => {
            let mut v = vec![make("bond_harmonic_kernel", bonds)];
            if angles > 0 {
                v.push(make("angle_harmonic_kernel", angles));
            }
            v
        }
    }
}

fn pme_kernels(tax: KernelTaxonomy, n: usize, grid: usize) -> Vec<KernelDesc> {
    let n64 = n as u64;
    let g3 = (grid * grid * grid) as u64;
    let grid_bytes = g3 * 8;
    let atom_warps = n64.div_ceil(32).max(1);
    let grid_warps = g3.div_ceil(32).max(1);
    let log_g = (usize::BITS - grid.leading_zeros() - 1) as u64;

    let spread = |name: &str| {
        KernelDesc::builder(name)
            .launch(LaunchConfig::linear(n64, 256))
            .mix(
                InstructionMix::new()
                    .with_fp32(atom_warps * 30)
                    .with_int(atom_warps * 16)
                    .with_branch(atom_warps * 2),
            )
            .stream(AccessStream::read(n64 * 4, 4, AccessPattern::Streaming))
            .stream(AccessStream::raw(
                Direction::Write,
                atom_warps * 8,
                8.0,
                AccessPattern::RandomUniform {
                    working_set_bytes: grid_bytes,
                },
            ))
            .dependency_fraction(0.5)
            .build()
    };
    let fft = |name: &str| {
        // log(grid) butterfly passes, each sweeping the grid.
        KernelDesc::builder(name)
            .launch(LaunchConfig::linear(g3, 256))
            .mix(
                InstructionMix::new()
                    .with_fp32(grid_warps * 8 * log_g)
                    .with_special(grid_warps * log_g)
                    .with_int(grid_warps * 4 * log_g)
                    .with_shared(grid_warps * 6 * log_g)
                    .with_branch(grid_warps * log_g),
            )
            // One grid read + write per axis pass; the butterfly stages
            // stay in shared memory (cuFFT-style).
            .stream(AccessStream::raw(
                Direction::Read,
                grid_warps * 3,
                8.0,
                AccessPattern::Sweep {
                    working_set_bytes: grid_bytes,
                    sweeps: 3,
                },
            ))
            .stream(AccessStream::raw(
                Direction::Write,
                grid_warps * 3,
                8.0,
                AccessPattern::Sweep {
                    working_set_bytes: grid_bytes,
                    sweeps: 3,
                },
            ))
            .dependency_fraction(0.45)
            .build()
    };
    let solve = |name: &str| {
        KernelDesc::builder(name)
            .launch(LaunchConfig::linear(g3, 256))
            .mix(
                InstructionMix::new()
                    .with_fp32(grid_warps * 12)
                    .with_special(grid_warps * 2)
                    .with_int(grid_warps * 4),
            )
            .stream(AccessStream::read(g3, 8, AccessPattern::Streaming))
            .stream(AccessStream::write(g3, 8, AccessPattern::Streaming))
            .build()
    };
    let gather = |name: &str| {
        KernelDesc::builder(name)
            .launch(LaunchConfig::linear(n64, 256))
            .mix(
                InstructionMix::new()
                    .with_fp32(atom_warps * 40)
                    .with_int(atom_warps * 16)
                    .with_branch(atom_warps * 2),
            )
            .stream(AccessStream::raw(
                Direction::Read,
                atom_warps * 24,
                4.0,
                AccessPattern::RandomUniform {
                    working_set_bytes: grid_bytes * 3,
                },
            ))
            .stream(AccessStream::write(n64 * 3, 4, AccessPattern::Streaming))
            .dependency_fraction(0.5)
            .build()
    };

    match tax {
        KernelTaxonomy::Gromacs => vec![
            spread("pme_spread_kernel"),
            fft("pme_solve_fft_kernel"),
            gather("pme_gather_kernel"),
        ],
        KernelTaxonomy::Lammps => vec![
            spread("pppm_make_rho"),
            fft("pppm_fft_forward"),
            solve("pppm_poisson_solve"),
            fft("pppm_fft_backward"),
            gather("pppm_field_gather"),
        ],
    }
}

fn coupling_kernel(tax: KernelTaxonomy, n: usize) -> KernelDesc {
    let name = match tax {
        KernelTaxonomy::Gromacs => "npt_scale_kernel",
        KernelTaxonomy::Lammps => "fix_npt_scale",
    };
    let n = n as u64;
    KernelDesc::builder(name)
        .launch(LaunchConfig::linear(n, 256))
        .mix(InstructionMix::elementwise(n, 4))
        .stream(AccessStream::read(n * 3, 4, AccessPattern::Streaming))
        .stream(AccessStream::write(n * 3, 4, AccessPattern::Streaming))
        .build()
}

fn reduce_kernel(tax: KernelTaxonomy, n: usize) -> KernelDesc {
    let name = match tax {
        KernelTaxonomy::Gromacs => "energy_reduce_kernel",
        KernelTaxonomy::Lammps => "compute_temp_reduce",
    };
    let n = n as u64;
    let warps = n.div_ceil(32).max(1);
    KernelDesc::builder(name)
        .launch(LaunchConfig::linear(n, 256).with_shared_mem(2048))
        .mix(
            InstructionMix::new()
                .with_fp32(warps * 6)
                .with_shared(warps * 8)
                .with_sync(warps * 2)
                .with_int(warps * 3),
        )
        .stream(AccessStream::read(n * 3, 4, AccessPattern::Streaming))
        .dependency_fraction(0.6)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemBuilder;
    use cactus_gpu::kernel::KernelDesc;
    use std::collections::BTreeSet;

    #[test]
    fn lj_engine_steps_and_launches_kernels() {
        let sys = SystemBuilder::new(200).density(0.6).build_lj_fluid();
        let mut engine = MdEngine::new(sys, MdConfig::default());
        let mut launches = Vec::new();
        let stats = engine.run(&mut launches, 5);
        assert_eq!(engine.step_count, 5);
        assert!(stats.pairs > 0);
        assert!(!launches.is_empty());
    }

    #[test]
    fn thermostat_regulates_temperature_through_engine() {
        let sys = SystemBuilder::new(216)
            .temperature(2.0)
            .density(0.5)
            .build_lj_fluid();
        let config = MdConfig {
            thermostat: Some(Thermostat {
                target: 1.0,
                coupling: 0.2,
            }),
            ..MdConfig::default()
        };
        let mut engine = MdEngine::new(sys, config);
        let mut launches = Vec::new();
        let stats = engine.run(&mut launches, 60);
        assert!(
            (stats.temperature - 1.0).abs() < 0.25,
            "T = {}",
            stats.temperature
        );
    }

    #[test]
    fn gromacs_taxonomy_uses_gromacs_kernel_names() {
        let sys = SystemBuilder::new(200).build_protein_like(0.2);
        let config = MdConfig {
            taxonomy: KernelTaxonomy::Gromacs,
            pair_style: PairStyle::LjCoulombCharmm,
            pme: Some(PmeParams {
                grid: 16,
                alpha: 0.8,
            }),
            thermostat: Some(Thermostat {
                target: 1.0,
                coupling: 0.1,
            }),
            barostat: Some(Barostat {
                target: 1.0,
                coupling: 0.01,
            }),
            ..MdConfig::default()
        };
        let mut engine = MdEngine::new(sys, config);
        let mut launches = Vec::new();
        let _ = engine.run(&mut launches, 12);
        let names: BTreeSet<&str> = launches.iter().map(KernelDesc::name).collect();
        assert!(names.contains("nbnxn_kernel_ElecEw_VdwLJ_F_cuda"));
        assert!(names.contains("pme_spread_kernel"));
        assert!(names.contains("npt_scale_kernel"));
        assert!(!names.iter().any(|n| n.starts_with("pair_")));
        // Gromacs NPT run executes its 9-kernel taxonomy.
        assert_eq!(names.len(), 9, "{names:?}");
    }

    #[test]
    fn lammps_charged_taxonomy_has_fifteen_kernels() {
        let sys = SystemBuilder::new(200).build_protein_like(0.2);
        let config = MdConfig {
            taxonomy: KernelTaxonomy::Lammps,
            pair_style: PairStyle::LjCoulombCharmm,
            pme: Some(PmeParams {
                grid: 16,
                alpha: 0.8,
            }),
            thermostat: Some(Thermostat {
                target: 1.0,
                coupling: 0.1,
            }),
            barostat: Some(Barostat {
                target: 1.0,
                coupling: 0.01,
            }),
            ..MdConfig::default()
        };
        let mut engine = MdEngine::new(sys, config);
        let mut launches = Vec::new();
        let _ = engine.run(&mut launches, 12);
        let names: BTreeSet<&str> = launches.iter().map(KernelDesc::name).collect();
        assert!(names.contains("pair_coul_long_kernel"));
        assert!(names.contains("pppm_fft_forward"));
        assert_eq!(names.len(), 15, "{names:?}");
    }

    #[test]
    fn colloid_taxonomy_has_nine_kernels_and_no_pppm() {
        let sys = SystemBuilder::new(300).build_colloid(0.1);
        let config = MdConfig {
            taxonomy: KernelTaxonomy::Lammps,
            pair_style: PairStyle::Colloid,
            cutoff: 2.5,
            thermostat: Some(Thermostat {
                target: 1.0,
                coupling: 0.1,
            }),
            ..MdConfig::default()
        };
        let mut engine = MdEngine::new(sys, config);
        let mut launches = Vec::new();
        let _ = engine.run(&mut launches, 25);
        let names: BTreeSet<&str> = launches.iter().map(KernelDesc::name).collect();
        assert!(names.contains("pair_colloid_kernel"));
        assert!(names.contains("pair_lj_cut_kernel"));
        assert!(!names.iter().any(|n| n.starts_with("pppm")));
        assert_eq!(names.len(), 9, "{names:?}");
    }

    #[test]
    fn uncharged_system_skips_pme_even_if_configured() {
        let sys = SystemBuilder::new(100).build_lj_fluid();
        let config = MdConfig {
            pme: Some(PmeParams {
                grid: 16,
                alpha: 0.8,
            }),
            ..MdConfig::default()
        };
        let mut engine = MdEngine::new(sys, config);
        let mut launches = Vec::new();
        let _ = engine.run(&mut launches, 3);
        assert!(!launches
            .iter()
            .any(|d| d.name().starts_with("pppm") || d.name().starts_with("pme")));
    }
}
