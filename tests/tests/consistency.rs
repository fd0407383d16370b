//! The paper's methodological claims about profiling stability: "achieved
//! results are consistent across different number of epochs and
//! iterations" (Section III-C), and the steady-state-slice profiling
//! approach for MD (Section IV).

use cactus_gpu::{Device, Gpu};
use cactus_md::workloads::{self, MdScale};
use cactus_profiler::Profile;
use cactus_tensor::apps::dcgan::{Dcgan, MlScale};
use cactus_tensor::apps::seq2seq::{Seq2Seq, SeqScale};

fn gpu() -> Gpu {
    Gpu::new(Device::rtx3080())
}

/// Top-kernel time shares of a profile, as (name, share) pairs.
fn shares(p: &Profile, k: usize) -> Vec<(String, f64)> {
    let total = p.total_time_s();
    p.kernels()
        .iter()
        .take(k)
        .map(|s| (s.name.clone(), s.time_share(total)))
        .collect()
}

/// Training more iterations must not change which kernels dominate or
/// their time shares (beyond a small wobble) — profiling a few iterations
/// is representative, as the paper asserts.
#[test]
fn ml_profiles_are_iteration_stable() {
    let run_dcgan = |iters: usize| -> Profile {
        let mut gpu = gpu();
        let mut app = Dcgan::new(
            MlScale {
                batch: 2,
                image: 8,
                iterations: iters,
            },
            7,
        );
        let _ = app.run(&mut gpu);
        Profile::from_records(gpu.records())
    };
    let short = run_dcgan(2);
    let long = run_dcgan(6);

    assert_eq!(short.kernel_count(), long.kernel_count());
    for ((n1, s1), (n2, s2)) in shares(&short, 5).iter().zip(shares(&long, 5).iter()) {
        assert_eq!(n1, n2, "dominance order must be stable");
        assert!(
            (s1 - s2).abs() < 0.03,
            "{n1}: share moved {s1:.3} → {s2:.3}"
        );
    }
}

#[test]
fn seq2seq_profiles_are_iteration_stable() {
    let run = |iters: usize| -> Profile {
        let mut gpu = gpu();
        let mut scale = SeqScale::tiny();
        scale.iterations = iters;
        let mut app = Seq2Seq::new(scale, 9);
        let _ = app.run(&mut gpu);
        Profile::from_records(gpu.records())
    };
    let short = run(2);
    let long = run(5);
    assert_eq!(short.kernel_count(), long.kernel_count());
    // Per-kernel share of the most dominant kernel is stable.
    let s1 = shares(&short, 1)[0].clone();
    let s2 = shares(&long, 1)[0].clone();
    assert_eq!(s1.0, s2.0);
    assert!((s1.1 - s2.1).abs() < 0.03);
}

/// Profiling a steady-state MD slice is representative: the distribution
/// over kernels from steps 10–20 matches steps 20–30.
#[test]
fn md_steady_state_slices_are_representative() {
    let mut engine = workloads::lammps_rhodopsin(
        MdScale {
            atoms: 400,
            steps: 0,
        },
        3,
    );
    // Warm up, then profile two consecutive windows, each on its own
    // engine.
    let _ = engine.run(&mut gpu(), 10);
    let mut gpu1 = gpu();
    let _ = engine.run(&mut gpu1, 10);
    let window1 = Profile::from_records(gpu1.records());
    let mut gpu2 = gpu();
    let _ = engine.run(&mut gpu2, 10);
    let window2 = Profile::from_records(gpu2.records());

    // Periodic kernels (energy reductions every 20 steps) can fall on one
    // side of a 10-step window boundary, so allow a one-kernel difference.
    assert!(
        window1.kernel_count().abs_diff(window2.kernel_count()) <= 1,
        "{} vs {}",
        window1.kernel_count(),
        window2.kernel_count()
    );
    for ((n1, s1), (n2, s2)) in shares(&window1, 3).iter().zip(shares(&window2, 3).iter()) {
        assert_eq!(n1, n2);
        assert!(
            (s1 - s2).abs() < 0.05,
            "{n1}: share moved {s1:.3} -> {s2:.3}"
        );
    }
}

/// Different seeds change the data but not the workload's structural
/// profile (kernel set and dominance order).
#[test]
fn seeds_change_data_not_structure() {
    let run = |seed: u64| -> Profile {
        let mut gpu = gpu();
        let mut engine = workloads::lammps_colloid(
            MdScale {
                atoms: 400,
                steps: 10,
            },
            seed,
        );
        let _ = engine.run(&mut gpu, 10);
        Profile::from_records(gpu.records())
    };
    let a = run(1);
    let b = run(99);
    assert_eq!(a.kernel_count(), b.kernel_count());
    // The full kernel set is identical; tiny same-cost kernels may swap
    // ranks, so only the top of the dominance order is pinned.
    let set_a: std::collections::BTreeSet<&str> =
        a.kernels().iter().map(|k| k.name.as_str()).collect();
    let set_b: std::collections::BTreeSet<&str> =
        b.kernels().iter().map(|k| k.name.as_str()).collect();
    assert_eq!(set_a, set_b);
    assert_eq!(a.kernels()[0].name, b.kernels()[0].name, "dominant kernel");
}
