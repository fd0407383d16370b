//! Bit-level goldens for the five ML training families.
//!
//! The constants were printed by
//! `cargo test -p cactus-tensor --test golden -- --nocapture --ignored print_goldens`
//! on the commit *before* `graph/conv.rs` became a blocked GEMM and must
//! never be edited by a change that claims to keep the model's bits: a
//! different digest is a `MODEL_VERSION` decision, not a test to update.
//!
//! Each run takes `iterations + 1` training iterations, so the last loss is
//! computed with the parameters the previous iteration's update produced.
//! The digest covers every loss bit of every iteration (and NST's optimised
//! image); at `tiny` it also covers the profile document the run renders on
//! `rtx-3080`. Seeds and scales are the suite's (`cactus_core::workloads`,
//! `SuiteScale::ml`).
//!
//! The `*_TINY_PROFILE` digests cover the `tiny` profile document alone (the
//! launch stream as `write_profile` renders it, no loss bit). They are the
//! *profile* goldens: never edited, a moved one is a `MODEL_VERSION`
//! decision. The combined constants mix loss bits in, so a change that
//! keeps every profile digest but moves a loss bit may re-pin only those,
//! in the commit that moves them, saying why. They were printed by the same
//! command after the GEMM landed, on a tree whose combined constants above
//! still held.

use cactus_gpu::{Device, Gpu};
use cactus_profiler::store::write_profile;
use cactus_profiler::Profile;
use cactus_tensor::apps::dcgan::{Dcgan, MlScale};
use cactus_tensor::apps::neural_style::NeuralStyle;
use cactus_tensor::apps::rl_dqn::DqnFlappy;
use cactus_tensor::apps::seq2seq::{Seq2Seq, SeqScale};
use cactus_tensor::apps::spatial_transformer::SpatialTransformer;

const DCG_TINY: u64 = 0xbd09_da21_8544_67c1;
const DCG_SMALL: u64 = 0x30c0_d591_d15b_504c;
const NST_TINY: u64 = 0xe3ea_17c2_2306_781c;
const NST_SMALL: u64 = 0x3f00_996d_d95c_249d;
const RFL_TINY: u64 = 0xfa75_8c87_6de9_2734;
const RFL_SMALL: u64 = 0x6baa_2a8d_82d6_eac1;
const SPT_TINY: u64 = 0x6b65_c1eb_3848_b93a;
const SPT_SMALL: u64 = 0x17d0_af1a_bf2b_32d3;
const LGT_TINY: u64 = 0xdbad_05a4_45e2_6850;
const LGT_SMALL: u64 = 0x60ae_20a8_afd7_ddf6;
const DCG_TINY_PROFILE: u64 = 0xfbc5_729e_4435_e2bb;
const NST_TINY_PROFILE: u64 = 0xddb4_ea40_9226_c6b8;
const RFL_TINY_PROFILE: u64 = 0x9891_86a4_5a49_133e;
const SPT_TINY_PROFILE: u64 = 0x2127_0f1e_dfcf_daed;
const LGT_TINY_PROFILE: u64 = 0xc40f_6464_b362_a3a4;

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

    fn f32(&mut self, x: f32) {
        self.bytes(&x.to_bits().to_le_bytes());
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Scale {
    Tiny,
    Small,
}

fn ml(scale: Scale) -> MlScale {
    match scale {
        Scale::Tiny => MlScale::tiny(),
        Scale::Small => MlScale {
            batch: 4,
            image: 16,
            iterations: 2,
        },
    }
}

fn seq(scale: Scale) -> SeqScale {
    match scale {
        Scale::Tiny => SeqScale::tiny(),
        Scale::Small => SeqScale {
            batch: 8,
            len: 6,
            vocab: 48,
            hidden: 24,
            iterations: 2,
        },
    }
}

/// Digest of one family's run at `scale` with the suite's seed.
fn family_digest(abbr: &str, scale: Scale) -> u64 {
    let mut gpu = Gpu::new(Device::rtx3080());
    let mut d = Digest::new();
    run_family(abbr, scale, &mut gpu, &mut d);
    if scale == Scale::Tiny {
        d.bytes(write_profile(&Profile::from_records(gpu.records())).as_bytes());
    }
    d.0
}

/// Digest of the `tiny` profile document alone: what a served profile of
/// the family can see.
fn tiny_profile_digest(abbr: &str) -> u64 {
    let mut gpu = Gpu::new(Device::rtx3080());
    run_family(abbr, Scale::Tiny, &mut gpu, &mut Digest::new());
    let mut d = Digest::new();
    d.bytes(write_profile(&Profile::from_records(gpu.records())).as_bytes());
    d.0
}

/// Run one family at `scale` with the suite's seed on `gpu`, feeding every
/// loss bit (and NST's image) to `d`.
fn run_family(abbr: &str, scale: Scale, gpu: &mut Gpu, d: &mut Digest) {
    let iters = ml(scale).iterations + 1;
    match abbr {
        "DCG" => {
            let mut app = Dcgan::new(ml(scale), 47);
            for _ in 0..iters {
                let l = app.train_iteration(gpu);
                d.f32(l.d_loss);
                d.f32(l.g_loss);
            }
        }
        "NST" => {
            let mut app = NeuralStyle::new(ml(scale), 48);
            for _ in 0..iters {
                d.f32(app.train_iteration(gpu));
            }
            for &x in app.image.data() {
                d.f32(x);
            }
        }
        "RFL" => {
            let mut app = DqnFlappy::new(ml(scale), 49);
            for _ in 0..iters {
                d.f32(app.train_iteration(gpu));
            }
        }
        "SPT" => {
            let mut app = SpatialTransformer::new(ml(scale), 50);
            for _ in 0..iters {
                d.f32(app.train_iteration(gpu));
            }
        }
        "LGT" => {
            let mut app = Seq2Seq::new(seq(scale), 51);
            for _ in 0..=seq(scale).iterations {
                d.f32(app.train_iteration(gpu));
            }
        }
        other => panic!("no ML family {other}"),
    }
}

#[test]
fn dcg_loss_and_profile_bits_are_pinned() {
    assert_eq!(family_digest("DCG", Scale::Tiny), DCG_TINY);
    assert_eq!(family_digest("DCG", Scale::Small), DCG_SMALL);
}

#[test]
fn nst_loss_image_and_profile_bits_are_pinned() {
    assert_eq!(family_digest("NST", Scale::Tiny), NST_TINY);
    assert_eq!(family_digest("NST", Scale::Small), NST_SMALL);
}

#[test]
fn rfl_loss_and_profile_bits_are_pinned() {
    assert_eq!(family_digest("RFL", Scale::Tiny), RFL_TINY);
    assert_eq!(family_digest("RFL", Scale::Small), RFL_SMALL);
}

#[test]
fn spt_loss_and_profile_bits_are_pinned() {
    assert_eq!(family_digest("SPT", Scale::Tiny), SPT_TINY);
    assert_eq!(family_digest("SPT", Scale::Small), SPT_SMALL);
}

#[test]
fn lgt_loss_and_profile_bits_are_pinned() {
    assert_eq!(family_digest("LGT", Scale::Tiny), LGT_TINY);
    assert_eq!(family_digest("LGT", Scale::Small), LGT_SMALL);
}

#[test]
fn tiny_profile_documents_are_pinned() {
    for (abbr, pinned) in [
        ("DCG", DCG_TINY_PROFILE),
        ("NST", NST_TINY_PROFILE),
        ("RFL", RFL_TINY_PROFILE),
        ("SPT", SPT_TINY_PROFILE),
        ("LGT", LGT_TINY_PROFILE),
    ] {
        assert_eq!(tiny_profile_digest(abbr), pinned, "{abbr} tiny profile");
    }
}

/// Prints the constants above; see the module doc for the command.
#[test]
#[ignore = "prints the golden constants instead of checking them"]
fn print_goldens() {
    for abbr in ["DCG", "NST", "RFL", "SPT", "LGT"] {
        for (scale, name) in [(Scale::Tiny, "TINY"), (Scale::Small, "SMALL")] {
            println!(
                "const {abbr}_{name}: u64 = {:#018x};",
                family_digest(abbr, scale)
            );
        }
    }
    for abbr in ["DCG", "NST", "RFL", "SPT", "LGT"] {
        println!(
            "const {abbr}_TINY_PROFILE: u64 = {:#018x};",
            tiny_profile_digest(abbr)
        );
    }
}
