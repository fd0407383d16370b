//! The ten Cactus workloads (Table I) wired onto the substrate crates.

use cactus_gpu::LaunchSink;
use cactus_md::workloads::MdScale;
use cactus_tensor::apps::dcgan::{Dcgan, MlScale};
use cactus_tensor::apps::neural_style::NeuralStyle;
use cactus_tensor::apps::rl_dqn::DqnFlappy;
use cactus_tensor::apps::seq2seq::{Seq2Seq, SeqScale};
use cactus_tensor::apps::spatial_transformer::SpatialTransformer;

use crate::scale::SuiteScale;

/// Application domain (Table I's first column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Molecular simulation.
    Molecular,
    /// Graph analytics.
    Graph,
    /// Machine learning.
    MachineLearning,
}

impl Domain {
    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Domain::Molecular => "Molecular",
            Domain::Graph => "Graph",
            Domain::MachineLearning => "Machine Learning",
        }
    }
}

/// One Cactus workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Table I abbreviation (`"GMS"`, …).
    pub abbr: &'static str,
    /// Workload name.
    pub name: &'static str,
    /// Domain.
    pub domain: Domain,
    /// Paper data set (what this reproduction substitutes for it is
    /// documented in DESIGN.md).
    pub dataset: &'static str,
    runner: fn(&mut dyn LaunchSink, SuiteScale),
}

impl Workload {
    /// Execute the workload, launching its kernels into `gpu`.
    pub fn run(&self, gpu: &mut dyn LaunchSink, scale: SuiteScale) {
        (self.runner)(gpu, scale);
    }
}

/// The suite in Table I order.
#[must_use]
pub fn suite() -> Vec<Workload> {
    vec![
        Workload {
            abbr: "GMS",
            name: "Gromacs NPT equilibration",
            domain: Domain::Molecular,
            dataset: "T4 lysozyme (synthetic protein-like system)",
            runner: gms,
        },
        Workload {
            abbr: "LMR",
            name: "LAMMPS protein simulation",
            domain: Domain::Molecular,
            dataset: "Rhodopsin 32K atoms (synthetic protein-like system)",
            runner: lmr,
        },
        Workload {
            abbr: "LMC",
            name: "LAMMPS pairwise particle interactions",
            domain: Domain::Molecular,
            dataset: "Colloid 60K atoms (synthetic suspension)",
            runner: lmc,
        },
        Workload {
            abbr: "GST",
            name: "BFS on social network",
            domain: Domain::Graph,
            dataset: "SOC-Twitter10 (R-MAT power-law graph)",
            runner: gst,
        },
        Workload {
            abbr: "GRU",
            name: "BFS on road network",
            domain: Domain::Graph,
            dataset: "Road USA (lattice road network)",
            runner: gru,
        },
        Workload {
            abbr: "DCG",
            name: "DCGAN training",
            domain: Domain::MachineLearning,
            dataset: "Celeba (synthetic face-like images)",
            runner: dcg,
        },
        Workload {
            abbr: "NST",
            name: "Neural style transfer",
            domain: Domain::MachineLearning,
            dataset: "Content and style images (synthetic)",
            runner: nst,
        },
        Workload {
            abbr: "RFL",
            name: "Deep-Q reinforcement learning",
            domain: Domain::MachineLearning,
            dataset: "Flappy bird game (simulated environment)",
            runner: rfl,
        },
        Workload {
            abbr: "SPT",
            name: "Spatial transformer training",
            domain: Domain::MachineLearning,
            dataset: "MNIST (synthetic digit glyphs)",
            runner: spt,
        },
        Workload {
            abbr: "LGT",
            name: "Seq2seq language translation",
            domain: Domain::MachineLearning,
            dataset: "Spacy German news (synthetic Zipf corpus)",
            runner: lgt,
        },
    ]
}

/// Look up a workload by abbreviation.
#[must_use]
pub fn by_abbr(abbr: &str) -> Option<Workload> {
    suite().into_iter().find(|w| w.abbr == abbr)
}

fn md_scale(scale: SuiteScale) -> (MdScale, u32) {
    let (atoms, steps) = scale.md();
    (MdScale { atoms, steps }, steps)
}

fn gms(gpu: &mut dyn LaunchSink, scale: SuiteScale) {
    let (s, steps) = md_scale(scale);
    let mut e = cactus_md::workloads::gromacs_npt(s, 42);
    let _ = e.run(gpu, steps);
}

fn lmr(gpu: &mut dyn LaunchSink, scale: SuiteScale) {
    let (s, steps) = md_scale(scale);
    let mut e = cactus_md::workloads::lammps_rhodopsin(s, 43);
    let _ = e.run(gpu, steps);
}

fn lmc(gpu: &mut dyn LaunchSink, scale: SuiteScale) {
    let (mut s, steps) = md_scale(scale);
    // The colloid system's large interaction radius makes its CPU cost per
    // atom much higher; run it at half the protein systems' atom count.
    s.atoms /= 2;
    let mut e = cactus_md::workloads::lammps_colloid(s, 44);
    let _ = e.run(gpu, steps);
}

fn gst(gpu: &mut dyn LaunchSink, scale: SuiteScale) {
    let g = cactus_graph::generators::social_network(scale.social_scale(), 45);
    // Source: a vertex of moderate degree so the frontier ramps through
    // all the load-balancing regimes.
    let src = (0..g.num_vertices())
        .find(|&v| g.out_degree(v) >= 8)
        .unwrap_or(0);
    // Direction-optimization switches a bit later on the social input so
    // the explosive middle level is still handled by the load-balanced
    // push advance (Gunrock's tuned do_a/do_b parameters behave the same).
    let cfg = cactus_graph::bfs::BfsConfig {
        bottom_up_fraction: 0.12,
        ..cactus_graph::bfs::BfsConfig::default()
    };
    let _ = cactus_graph::bfs::gunrock_bfs_with_config(gpu, &g, src, &cfg);
}

fn gru(gpu: &mut dyn LaunchSink, scale: SuiteScale) {
    let side = scale.road_side();
    let g = cactus_graph::generators::road_network(side, side, 46);
    let _ = cactus_graph::gunrock_bfs(gpu, &g, 0);
}

fn ml_scale(scale: SuiteScale) -> MlScale {
    let (batch, image, iterations) = scale.ml();
    MlScale {
        batch,
        image,
        iterations,
    }
}

fn dcg(gpu: &mut dyn LaunchSink, scale: SuiteScale) {
    let mut app = Dcgan::new(ml_scale(scale), 47);
    let _ = app.run(gpu);
}

fn nst(gpu: &mut dyn LaunchSink, scale: SuiteScale) {
    let mut app = NeuralStyle::new(ml_scale(scale), 48);
    let _ = app.run(gpu);
}

fn rfl(gpu: &mut dyn LaunchSink, scale: SuiteScale) {
    let mut app = DqnFlappy::new(ml_scale(scale), 49);
    if scale == SuiteScale::Profile {
        // Fewer environment ticks per replay fit: the profiled region is
        // dominated by the minibatch updates, as in the paper's steady
        // state (the warm-up acting phase is excluded there).
        app.steps_per_iteration = 4;
    }
    let _ = app.run(gpu);
}

fn spt(gpu: &mut dyn LaunchSink, scale: SuiteScale) {
    let mut app = SpatialTransformer::new(ml_scale(scale), 50);
    let _ = app.run(gpu);
}

fn lgt(gpu: &mut dyn LaunchSink, scale: SuiteScale) {
    let seq = match scale {
        SuiteScale::Tiny => SeqScale::tiny(),
        SuiteScale::Small => SeqScale {
            batch: 8,
            len: 6,
            vocab: 48,
            hidden: 24,
            iterations: 2,
        },
        SuiteScale::Profile => SeqScale::default_profile(),
    };
    let mut app = Seq2Seq::new(seq, 51);
    let _ = app.run(gpu);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_gpu::{Device, Gpu};
    use cactus_profiler::Profile;
    use std::collections::BTreeSet;

    fn kernel_names(abbr: &str) -> BTreeSet<String> {
        let mut launches = Vec::new();
        by_abbr(abbr).unwrap().run(&mut launches, SuiteScale::Tiny);
        launches.iter().map(|d| d.name().to_owned()).collect()
    }

    #[test]
    fn md_workloads_use_their_taxonomies() {
        assert!(kernel_names("GMS").iter().any(|n| n.starts_with("nbnxn")));
        assert!(kernel_names("LMR").iter().any(|n| n.starts_with("pppm")));
        assert!(kernel_names("LMC").iter().any(|n| n.contains("colloid")));
    }

    #[test]
    fn graph_workloads_are_gunrock_style() {
        assert!(kernel_names("GST").iter().any(|n| n.starts_with("bfs_")));
        assert!(kernel_names("GRU").iter().any(|n| n.starts_with("bfs_")));
    }

    #[test]
    fn ml_workloads_have_large_kernel_populations() {
        for abbr in ["DCG", "NST", "RFL", "SPT", "LGT"] {
            let n = kernel_names(abbr).len();
            assert!(n >= 18, "{abbr}: {n} kernels");
        }
    }

    #[test]
    fn md_kernel_counts_match_table_i() {
        let mut gpu = Gpu::new(Device::rtx3080());
        by_abbr("GMS").unwrap().run(&mut gpu, SuiteScale::Tiny);
        let gms = Profile::from_records(gpu.records());
        assert_eq!(gms.kernel_count(), 9, "GMS");

        let mut gpu = Gpu::new(Device::rtx3080());
        by_abbr("LMR").unwrap().run(&mut gpu, SuiteScale::Tiny);
        assert_eq!(
            Profile::from_records(gpu.records()).kernel_count(),
            15,
            "LMR"
        );

        let mut gpu = Gpu::new(Device::rtx3080());
        by_abbr("LMC").unwrap().run(&mut gpu, SuiteScale::Tiny);
        assert_eq!(
            Profile::from_records(gpu.records()).kernel_count(),
            9,
            "LMC"
        );
    }
}
