//! Bit-level goldens for the three MD workloads.
//!
//! The constants were printed by
//! `cargo test -p cactus-md --test golden -- --nocapture print_goldens --ignored`
//! on the commit *before* `fft.rs`/`pme.rs` were restructured and must never
//! be edited by a change that claims to keep the model's bits: a different
//! digest is a `MODEL_VERSION` decision, not a test to update.
//!
//! The run is 600 atoms × 25 steps so the neighbor list is rebuilt at steps
//! 0, 10 and 20: the later rebuilds see positions that PME forces have
//! moved, so the pair-kernel descriptors (and with them the profile) depend
//! on every bit the reciprocal solver produces. At `tiny` the only rebuild
//! precedes the first force evaluation and a profile cannot see PME at all.
//!
//! GMS and LMR charge only their first particles, which the lattice places
//! in a few x-slabs, so most of their PME grid stays `+0.0`. The dense run
//! (every particle charged) and the reciprocal-space digests below also pin
//! charge spread over the whole box, a lone pair, and charges sitting
//! exactly on grid points and on the wrap edge.

use cactus_core::workloads::by_abbr;
use cactus_core::SuiteScale;
use cactus_gpu::{Device, Gpu};
use cactus_md::pme::{PmeParams, PmeWorkspace};
use cactus_md::system::SystemBuilder;
use cactus_md::workloads::{gromacs_npt, lammps_colloid, lammps_rhodopsin, MdScale};
use cactus_md::{MdEngine, ParticleSystem};
use cactus_profiler::store::write_profile;
use cactus_profiler::Profile;

const SCALE: MdScale = MdScale {
    atoms: 600,
    steps: 25,
};

const GMS_STATE: u64 = 0x17f6_47a1_e078_7538;
const LMR_STATE: u64 = 0x1996_ae3b_d842_80a4;
const LMC_STATE: u64 = 0x23b5_9c3b_a5ea_32d3;
const GMS_SMALL_PROFILE: u64 = 0xafb1_87a5_c1a4_a5d2;
const LMR_SMALL_PROFILE: u64 = 0x1ad3_72c6_d698_5f48;
const DENSE_STATE: u64 = 0xc421_9b27_1ec5_db16;
const RECIPROCAL: [(&str, u64); 4] = [
    ("chain", 0x0f9e_d051_eb53_924d),
    ("fluid", 0xe5bf_e10f_8270_c139),
    ("pair", 0x02a2_66da_df69_fe85),
    ("on-grid", 0x6937_ed1e_8a98_6a3f),
];

/// 64-bit FNV-1a.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }
}

/// Digest of everything a run leaves behind: every position and velocity,
/// the box, the last step's stats and the rendered profile.
fn state_digest(mut engine: MdEngine) -> u64 {
    let mut gpu = Gpu::new(Device::rtx3080());
    let stats = engine.run(&mut gpu, SCALE.steps);
    let sys = engine.system();
    let mut d = Digest::new();
    for v in sys.positions.iter().chain(&sys.velocities) {
        for &x in v {
            d.f64(x);
        }
    }
    d.f64(sys.box_len);
    d.f64(stats.potential_energy);
    d.f64(stats.temperature);
    d.bytes(&stats.pairs.to_le_bytes());
    d.bytes(write_profile(&Profile::from_records(gpu.records())).as_bytes());
    d.0
}

/// Digest of the profile document a `small` run of a suite workload stores.
fn small_profile_digest(abbr: &str) -> u64 {
    let mut gpu = Gpu::new(Device::rtx3080());
    by_abbr(abbr)
        .expect("suite workload")
        .run(&mut gpu, SuiteScale::Small);
    let mut d = Digest::new();
    d.bytes(write_profile(&Profile::from_records(gpu.records())).as_bytes());
    d.0
}

/// A perturbed-lattice LJ fluid whose every particle carries a charge,
/// alternating ±0.5.
fn charged_fluid(atoms: usize) -> ParticleSystem {
    let mut sys = SystemBuilder::new(atoms)
        .density(0.7)
        .seed(45)
        .build_lj_fluid();
    for (i, q) in sys.charges.iter_mut().enumerate() {
        *q = if i % 2 == 0 { 0.5 } else { -0.5 };
    }
    sys
}

/// GMS's engine configuration on [`charged_fluid`]: charge spreads over
/// the whole box instead of a few x-slabs.
fn dense_charge_engine() -> MdEngine {
    let config = gromacs_npt(SCALE, 42).config().clone();
    MdEngine::new(charged_fluid(SCALE.atoms), config)
}

/// The four layouts the reciprocal-space digests run on.
fn reciprocal_layout(name: &str) -> ParticleSystem {
    match name {
        // GMS's `tiny` system: the charged chain and ions are the first
        // particles, so they sit in the lattice's first x-planes.
        "chain" => SystemBuilder::new(300)
            .density(0.7)
            .seed(42)
            .build_protein_like(0.15),
        "fluid" => charged_fluid(300),
        "pair" => {
            let mut sys = SystemBuilder::new(2).density(0.001).build_lj_fluid();
            let c = sys.box_len / 2.0;
            sys.positions = vec![[c - 1.5, c, c], [c + 1.5, c + 0.3, c - 0.2]];
            sys.charges = vec![1.0, -1.0];
            sys
        }
        // Box 8: every coordinate below is a grid point for n ∈ {1, 2, 8,
        // 32}, several lie on the wrap edge (8.0, −0.0, −8.0, and −1e−17,
        // which wraps to exactly 8.0), and the zero CIC weights times the
        // negative charges spread −0.0.
        "on-grid" => {
            let mut sys = SystemBuilder::new(7).build_lj_fluid();
            sys.box_len = 8.0;
            sys.positions = vec![
                [0.0, 0.0, 0.0],
                [4.0, 4.0, 4.0],
                [8.0, 2.0, 8.0],
                [0.25, 7.75, 3.0],
                [-0.0, 6.0, 0.5],
                [7.0, 1.0, -8.0],
                [-1e-17, 4.0, 2.0],
            ];
            sys.charges = vec![1.0, -1.0, -0.5, 0.5, -0.25, 0.25, -0.75];
            sys
        }
        _ => unreachable!("no layout {name}"),
    }
}

/// Digest of the reciprocal energy and every force bit of one layout at
/// `n ∈ {1, 2, 8, 32}`, two calls per workspace (the second after a move).
fn reciprocal_digest(layout: &str) -> u64 {
    let mut d = Digest::new();
    for n in [1, 2, 8, 32] {
        let mut sys = reciprocal_layout(layout);
        let mut ws = PmeWorkspace::new(PmeParams {
            grid: n,
            alpha: 0.8,
        });
        for round in 0..2 {
            if round == 1 {
                for (i, p) in sys.positions.iter_mut().enumerate() {
                    p[i % 3] += 1.0;
                }
            }
            sys.clear_forces();
            d.f64(ws.reciprocal(&mut sys));
            for f in &sys.forces {
                for &x in f {
                    d.f64(x);
                }
            }
        }
    }
    d.0
}

#[test]
fn gms_state_and_profile_bits_are_pinned() {
    assert_eq!(state_digest(gromacs_npt(SCALE, 42)), GMS_STATE);
}

#[test]
fn lmr_state_and_profile_bits_are_pinned() {
    assert_eq!(state_digest(lammps_rhodopsin(SCALE, 43)), LMR_STATE);
}

#[test]
fn lmc_state_and_profile_bits_are_pinned() {
    assert_eq!(state_digest(lammps_colloid(SCALE, 44)), LMC_STATE);
}

#[test]
fn small_scale_gms_and_lmr_profiles_are_pinned() {
    assert_eq!(small_profile_digest("GMS"), GMS_SMALL_PROFILE);
    assert_eq!(small_profile_digest("LMR"), LMR_SMALL_PROFILE);
}

#[test]
fn dense_charge_state_and_profile_bits_are_pinned() {
    assert_eq!(state_digest(dense_charge_engine()), DENSE_STATE);
}

#[test]
fn reciprocal_bits_are_pinned_on_every_layout() {
    for (layout, want) in RECIPROCAL {
        assert_eq!(reciprocal_digest(layout), want, "{layout}");
    }
}

/// Prints the constants above; see the module doc for the command.
#[test]
#[ignore = "prints the golden constants instead of checking them"]
fn print_goldens() {
    println!(
        "const GMS_STATE: u64 = {:#018x};",
        state_digest(gromacs_npt(SCALE, 42))
    );
    println!(
        "const LMR_STATE: u64 = {:#018x};",
        state_digest(lammps_rhodopsin(SCALE, 43))
    );
    println!(
        "const LMC_STATE: u64 = {:#018x};",
        state_digest(lammps_colloid(SCALE, 44))
    );
    println!(
        "const GMS_SMALL_PROFILE: u64 = {:#018x};",
        small_profile_digest("GMS")
    );
    println!(
        "const LMR_SMALL_PROFILE: u64 = {:#018x};",
        small_profile_digest("LMR")
    );
    println!(
        "const DENSE_STATE: u64 = {:#018x};",
        state_digest(dense_charge_engine())
    );
    println!("const RECIPROCAL: [(&str, u64); 4] = [");
    for (layout, _) in RECIPROCAL {
        println!("    ({layout:?}, {:#018x}),", reciprocal_digest(layout));
    }
    println!("];");
}
