//! The three Tango DNN benchmarks (Karki et al. 2019) used in the paper:
//! AlexNet (AN), ResNet (RN) and SqueezeNet (SN).
//!
//! Tango deliberately avoids CuDNN: each network runs a small set of
//! hand-written kernels (one custom convolution kernel, one pooling kernel,
//! one fully-connected kernel), which is why these benchmarks behave like
//! classic one-or-two-kernel workloads in Figures 2 and 4 rather than like
//! the Cactus PyTorch apps. Per the paper's roofline analysis, SN and RN
//! kernels are all compute-intensive, while AN has three kernels of which
//! two are compute- and one memory-intensive.

use cactus_gpu::LaunchSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{compute_kernel, streaming_kernel};
use crate::{Benchmark, Scale, Suite};

fn n_of(scale: Scale, tiny: u64, profile: u64) -> u64 {
    match scale {
        Scale::Tiny => tiny,
        Scale::Profile => profile,
    }
}

/// Registry of the Tango benchmarks.
#[must_use]
pub(crate) fn benchmarks() -> Vec<Benchmark> {
    let b = |name, runner| Benchmark {
        name,
        suite: Suite::Tango,
        runner,
    };
    vec![
        b("alexnet", alexnet),
        b("resnet", resnet),
        b("squeezenet", squeezenet),
    ]
}

/// A real (tiny) direct convolution used as the computational core of all
/// three networks; returns a checksum so the work cannot be elided.
fn direct_conv_core(seed: u64) -> f32 {
    let mut rng = StdRng::seed_from_u64(seed);
    let (c, h, w, oc, k) = (3usize, 8usize, 8usize, 4usize, 3usize);
    let input: Vec<f32> = (0..c * h * w).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let weights: Vec<f32> = (0..oc * c * k * k)
        .map(|_| rng.gen_range(-0.5..0.5))
        .collect();
    let mut acc = 0.0f32;
    for o in 0..oc {
        for y in 0..h - k + 1 {
            for x in 0..w - k + 1 {
                let mut s = 0.0f32;
                for ci in 0..c {
                    for ky in 0..k {
                        for kx in 0..k {
                            s += input[(ci * h + y + ky) * w + x + kx]
                                * weights[((o * c + ci) * k + ky) * k + kx];
                        }
                    }
                }
                acc += s.max(0.0); // fused ReLU
            }
        }
    }
    acc
}

/// AN: custom conv (compute) + FC GEMV (compute) + pooling/normalization
/// (memory) — the paper's three-kernel mixed case.
fn alexnet(gpu: &mut dyn LaunchSink, scale: Scale) {
    assert!(direct_conv_core(31).is_finite());
    let px = n_of(scale, 1 << 12, 1 << 20);
    gpu.launch(&compute_kernel("conv2D_kernel_batched", px * 4, 350, px));
    gpu.launch(&compute_kernel("fc_layer_kernel", px / 2, 180, px * 2));
    gpu.launch(&streaming_kernel("maxpool_norm_kernel", px, 36, 4, 6));
}

/// RN: residual blocks — all kernels compute-intensive.
fn resnet(gpu: &mut dyn LaunchSink, scale: Scale) {
    assert!(direct_conv_core(32).is_finite());
    let px = n_of(scale, 1 << 12, 1 << 20);
    gpu.launch(&compute_kernel("conv2D_kernel_3x3", px * 6, 420, px));
    gpu.launch(&compute_kernel("conv2D_kernel_1x1_proj", px * 2, 200, px));
}

/// SN: fire modules — all kernels compute-intensive.
fn squeezenet(gpu: &mut dyn LaunchSink, scale: Scale) {
    assert!(direct_conv_core(33).is_finite());
    let px = n_of(scale, 1 << 12, 1 << 20);
    gpu.launch(&compute_kernel("fire_squeeze_1x1_kernel", px * 2, 260, px));
    gpu.launch(&compute_kernel("fire_expand_3x3_kernel", px * 3, 380, px));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_analysis::roofline::{Intensity, Roofline};
    use cactus_gpu::{Device, Gpu};
    use cactus_profiler::Profile;

    fn classes(name: &str) -> Vec<Intensity> {
        let mut gpu = Gpu::new(Device::rtx3080());
        crate::by_name(name).unwrap().run(&mut gpu, Scale::Profile);
        let r = Roofline::for_device(&Device::rtx3080());
        Profile::from_records(gpu.records())
            .kernels()
            .iter()
            .map(|k| r.intensity_class(k.metrics.instruction_intensity))
            .collect()
    }

    #[test]
    fn alexnet_has_two_compute_one_memory_kernel() {
        let c = classes("alexnet");
        assert_eq!(c.len(), 3);
        assert_eq!(
            c.iter()
                .filter(|&&x| x == Intensity::ComputeIntensive)
                .count(),
            2
        );
        assert_eq!(
            c.iter()
                .filter(|&&x| x == Intensity::MemoryIntensive)
                .count(),
            1
        );
    }

    #[test]
    fn resnet_and_squeezenet_are_all_compute() {
        for name in ["resnet", "squeezenet"] {
            let c = classes(name);
            assert!(
                c.iter().all(|&x| x == Intensity::ComputeIntensive),
                "{name}: {c:?}"
            );
        }
    }

    #[test]
    fn conv_core_is_deterministic() {
        assert_eq!(direct_conv_core(5), direct_conv_core(5));
        assert_ne!(direct_conv_core(5), direct_conv_core(6));
    }
}
