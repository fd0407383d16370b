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

use cactus_core::workloads::by_abbr;
use cactus_core::SuiteScale;
use cactus_gpu::{Device, Gpu};
use cactus_md::workloads::{gromacs_npt, lammps_colloid, lammps_rhodopsin, MdScale};
use cactus_md::MdEngine;
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
}
