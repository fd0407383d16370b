//! Bit-level goldens for the three MD workloads, in two kinds.
//!
//! A *profile* digest covers everything a profile can see: the launch
//! stream (the `Debug` rendering of every descriptor `Gpu::take_desc_log`
//! returns; `f64` fields print round-trip exact) and the rendered profile
//! document. Profile constants are never edited: a different profile digest
//! is a `MODEL_VERSION` decision, not a test to update.
//!
//! A *state* digest covers what a run leaves behind (every position and
//! velocity, the box, the last step's stats); the reciprocal digests cover
//! the energy and every force bit `PmeWorkspace::reciprocal` returns. No
//! profile reads them directly, so a change that keeps every profile
//! constant may re-pin a state or reciprocal constant, and says why in its
//! commit message.
//!
//! The constants are printed by
//! `cargo test --release -p cactus-md --test golden -- --nocapture --ignored print_goldens`:
//! the profile constants once, on the code before the change they guard;
//! a re-pinned state or reciprocal constant by the commit that moved it.
//!
//! The 600 atom × 25 step runs rebuild the neighbor list at steps 0, 10 and
//! 20: the later rebuilds see positions that PME forces have moved, so the
//! pair-kernel descriptors may depend on the reciprocal solver's bits —
//! through threshold crossings only (a pair crossing `cutoff + skin`, the
//! box crossing a cell boundary). The `profile`-scale runs (32 000 atoms ×
//! 30 steps, release only) are what the fig/table binaries' stored
//! profiles are made of. The `tiny` GMS, LMR and LMC digests cover the MD
//! documents (and launch streams) that `suite-local`'s `body_digest`
//! hashes, so these tests check them without running the benchmark.
//! At `tiny` and `small` the only rebuild precedes the first force
//! evaluation, and no value reaches the stream (`tests/value_free.rs`).
//!
//! No workload runs `PairStyle::LjCut`; the `LJ_CUT` digests pin its bits
//! on `MdConfig::default()` over a plain LJ fluid.
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
use cactus_md::{MdConfig, MdEngine, ParticleSystem};
use cactus_profiler::store::write_profile;
use cactus_profiler::Profile;

const SCALE: MdScale = MdScale {
    atoms: 600,
    steps: 25,
};

// Profile digests: never edited.
const GMS_PROFILE: u64 = 0xb3a1_8a30_7266_4d90;
const LMR_PROFILE: u64 = 0x8ea4_72bc_e958_ae45;
const LMC_PROFILE: u64 = 0x29d3_6d93_121b_655f;
const DENSE_PROFILE: u64 = 0x48b5_ea02_7668_a5e0;
const LJ_CUT_PROFILE: u64 = 0x8e4a_77bd_2054_59ad;
const GMS_TINY_PROFILE: u64 = 0x0fb0_a175_1a16_2c1f;
const LMR_TINY_PROFILE: u64 = 0x3170_2e38_ce4d_73e6;
const LMC_TINY_PROFILE: u64 = 0xe26b_a1e3_3bdc_fa6d;
const GMS_SMALL_PROFILE: u64 = 0xe97a_a80c_f8b8_4329;
const LMR_SMALL_PROFILE: u64 = 0x1deb_1591_5601_a2f5;
const GMS_PROFILE_SCALE: u64 = 0x6c55_fd3a_b7c8_4588;
const LMR_PROFILE_SCALE: u64 = 0x2b6c_ea3d_b8e4_07a2;

// State and reciprocal digests: re-pinned only with every profile digest kept.
const GMS_STATE: u64 = 0xb33c_8612_c4a5_7dd4;
const LMR_STATE: u64 = 0x26b2_a6df_7c0c_9233;
const LMC_STATE: u64 = 0x1c7d_dc22_11f7_a9f2;
const DENSE_STATE: u64 = 0x3ca1_9f9b_3722_2981;
const LJ_CUT_STATE: u64 = 0x50c4_35c2_8fc1_b353;
const RECIPROCAL: [(&str, u64); 4] = [
    ("chain", 0x5945_1fdf_dfe7_83e8),
    ("fluid", 0xe9db_5958_6489_8f0d),
    ("pair", 0x2ce7_d24a_d3f0_7027),
    ("on-grid", 0xfa61_5e50_3017_8d20),
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

/// A `Gpu` that logs every launched descriptor.
fn logging_gpu() -> Gpu {
    let mut gpu = Gpu::new(Device::rtx3080());
    gpu.enable_desc_log();
    gpu
}

/// Digest of what a profile can see: the launch stream `gpu` logged and the
/// profile document its records render to.
fn profile_digest(gpu: &mut Gpu) -> u64 {
    let mut d = Digest::new();
    for desc in gpu.take_desc_log() {
        d.bytes(format!("{desc:?}").as_bytes());
    }
    d.bytes(write_profile(&Profile::from_records(gpu.records())).as_bytes());
    d.0
}

/// The `(profile, state)` digests of a `SCALE.steps` run. The state digest
/// covers every position and velocity, the box and the last step's stats.
fn run_digests(mut engine: MdEngine) -> (u64, u64) {
    let mut gpu = logging_gpu();
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
    (profile_digest(&mut gpu), d.0)
}

fn assert_run_pinned(engine: MdEngine, profile: u64, state: u64) {
    let (got_profile, got_state) = run_digests(engine);
    assert_eq!(
        got_profile, profile,
        "profile digest: a MODEL_VERSION decision"
    );
    assert_eq!(got_state, state, "state digest");
}

/// Profile digest of a suite workload run as the suite runs it.
fn suite_profile_digest(abbr: &str, scale: SuiteScale) -> u64 {
    let mut gpu = logging_gpu();
    by_abbr(abbr).expect("suite workload").run(&mut gpu, scale);
    profile_digest(&mut gpu)
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

/// The default configuration (`PairStyle::LjCut`, no PME, no coupling) on
/// an uncharged LJ fluid.
fn lj_cut_engine() -> MdEngine {
    let sys = SystemBuilder::new(SCALE.atoms).seed(41).build_lj_fluid();
    MdEngine::new(sys, MdConfig::default())
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
    assert_run_pinned(gromacs_npt(SCALE, 42), GMS_PROFILE, GMS_STATE);
}

#[test]
fn lmr_state_and_profile_bits_are_pinned() {
    assert_run_pinned(lammps_rhodopsin(SCALE, 43), LMR_PROFILE, LMR_STATE);
}

#[test]
fn lmc_state_and_profile_bits_are_pinned() {
    assert_run_pinned(lammps_colloid(SCALE, 44), LMC_PROFILE, LMC_STATE);
}

#[test]
fn dense_charge_state_and_profile_bits_are_pinned() {
    assert_run_pinned(dense_charge_engine(), DENSE_PROFILE, DENSE_STATE);
}

#[test]
fn lj_cut_state_and_profile_bits_are_pinned() {
    assert_run_pinned(lj_cut_engine(), LJ_CUT_PROFILE, LJ_CUT_STATE);
}

#[test]
fn tiny_scale_md_profiles_are_pinned() {
    // What `suite-local` hashes into its `body_digest` for the MD families.
    for (abbr, want) in [
        ("GMS", GMS_TINY_PROFILE),
        ("LMR", LMR_TINY_PROFILE),
        ("LMC", LMC_TINY_PROFILE),
    ] {
        assert_eq!(suite_profile_digest(abbr, SuiteScale::Tiny), want, "{abbr}");
    }
}

#[test]
fn small_scale_gms_and_lmr_profiles_are_pinned() {
    assert_eq!(
        suite_profile_digest("GMS", SuiteScale::Small),
        GMS_SMALL_PROFILE
    );
    assert_eq!(
        suite_profile_digest("LMR", SuiteScale::Small),
        LMR_SMALL_PROFILE
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "32 000 atoms × 30 steps: release only")]
fn profile_scale_gms_profile_is_pinned() {
    assert_eq!(
        suite_profile_digest("GMS", SuiteScale::Profile),
        GMS_PROFILE_SCALE
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "32 000 atoms × 30 steps: release only")]
fn profile_scale_lmr_profile_is_pinned() {
    assert_eq!(
        suite_profile_digest("LMR", SuiteScale::Profile),
        LMR_PROFILE_SCALE
    );
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
    let runs = [
        ("GMS", gromacs_npt(SCALE, 42)),
        ("LMR", lammps_rhodopsin(SCALE, 43)),
        ("LMC", lammps_colloid(SCALE, 44)),
        ("DENSE", dense_charge_engine()),
        ("LJ_CUT", lj_cut_engine()),
    ]
    .map(|(name, engine)| (name, run_digests(engine)));
    for (name, (profile, _)) in runs {
        println!("const {name}_PROFILE: u64 = {profile:#018x};");
    }
    for (scale, suffix, abbrs) in [
        (SuiteScale::Tiny, "TINY_PROFILE", &["GMS", "LMR", "LMC"][..]),
        (SuiteScale::Small, "SMALL_PROFILE", &["GMS", "LMR"]),
        (SuiteScale::Profile, "PROFILE_SCALE", &["GMS", "LMR"]),
    ] {
        for abbr in abbrs {
            println!(
                "const {abbr}_{suffix}: u64 = {:#018x};",
                suite_profile_digest(abbr, scale)
            );
        }
    }
    for (name, (_, state)) in runs {
        println!("const {name}_STATE: u64 = {state:#018x};");
    }
    println!("const RECIPROCAL: [(&str, u64); 4] = [");
    for (layout, _) in RECIPROCAL {
        println!("    ({layout:?}, {:#018x}),", reciprocal_digest(layout));
    }
    println!("];");
}
