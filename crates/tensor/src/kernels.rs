//! The cuDNN/cuBLAS-style kernel-selection layer.
//!
//! Real ML stacks do not launch "a GEMM"; they launch one of dozens of
//! shape-specialized kernels (`ampere_sgemm_128x128_tn`,
//! `winograd_fwd_3x3`, `vectorized_elementwise_kernel<add>`, …) picked by
//! an algorithm-selection heuristic. This module reproduces that mechanism:
//! each lowering function inspects the operation's shape and emits the
//! matching named [`KernelDesc`], so the *population* of distinct kernels an
//! application executes emerges from its layer shapes, exactly as in the
//! paper's PyTorch + CuDNN workloads.

use cactus_gpu::access::{AccessPattern, AccessStream, Direction};
use cactus_gpu::instmix::InstructionMix;
use cactus_gpu::kernel::KernelDesc;
use cactus_gpu::launch::LaunchConfig;
use cactus_gpu::LaunchSink;

fn warps(n: u64) -> u64 {
    n.div_ceil(32).max(1)
}

/// GEMM: `C[m×n] += A[m×k] · B[k×n]`, with cuBLAS-style tile selection and
/// `nn`/`tn`/`nt` layout suffixes.
pub(crate) fn gemm(gpu: &mut dyn LaunchSink, m: usize, n: usize, k: usize, ta: bool, tb: bool) {
    let (m64, n64, k64) = (m as u64, n as u64, k as u64);
    let layout = match (ta, tb) {
        (false, false) => "nn",
        (true, false) => "tn",
        (false, true) => "nt",
        (true, true) => "tt",
    };

    // Degenerate shapes use the GEMV kernels, as cuBLAS does.
    if n == 1 || m == 1 {
        let (rows, cols) = if n == 1 { (m64, k64) } else { (n64, k64) };
        let w = warps(rows * cols);
        let kd = KernelDesc::builder(format!("gemv2T_kernel_val_{layout}"))
            .launch(LaunchConfig::linear(rows * 32, 128))
            .mix(
                InstructionMix::new()
                    .with_fp32(w)
                    .with_int(w / 2 + 1)
                    .with_shared(w / 4 + 1)
                    .with_sync(w / 32 + 1),
            )
            .stream(AccessStream::read(rows * cols, 4, AccessPattern::Streaming))
            .stream(AccessStream::read(
                cols,
                4,
                AccessPattern::Broadcast { bytes: cols * 4 },
            ))
            .stream(AccessStream::write(rows, 4, AccessPattern::Streaming))
            .dependency_fraction(0.45)
            .build();
        gpu.launch(&kd);
        return;
    }

    let tile: u64 = if m >= 256 && n >= 256 {
        128
    } else if m >= 64 && n >= 64 {
        64
    } else {
        32
    };
    // Skinny outputs with deep K starve the device of blocks; cuBLAS picks
    // a split-K kernel that parallelizes the reduction dimension.
    let base_blocks = m64.div_ceil(tile) * n64.div_ceil(tile);
    let split_k = if base_blocks < 16 && k >= 192 {
        k64.div_ceil(256).max(2)
    } else {
        1
    };
    let name = if split_k > 1 {
        format!("ampere_sgemm_{tile}x{tile}_splitK_{layout}")
    } else {
        format!("ampere_sgemm_{tile}x{tile}_{layout}")
    };

    // FMA warp instructions: m·n·k thread-FMAs / 32 lanes.
    let fma = (m64 * n64 * k64).div_ceil(32).max(1);
    // Tiling means each A element is re-read n/tile times from global
    // (and symmetrically for B); the rest of the reuse lives in shared.
    let a_reads = m64 * k64 * n64.div_ceil(tile).max(1);
    let b_reads = k64 * n64 * m64.div_ceil(tile).max(1);
    let a_bytes = m64 * k64 * 4;
    let b_bytes = k64 * n64 * 4;

    let kd = KernelDesc::builder(name)
        .launch(
            LaunchConfig::new((base_blocks * split_k).max(1), 256)
                .with_registers(if tile == 128 { 128 } else { 64 })
                .with_shared_mem(if tile == 128 { 48 * 1024 } else { 16 * 1024 }),
        )
        .mix(
            InstructionMix::new()
                .with_fp32(fma)
                .with_shared(fma / 4 + 1)
                .with_int(fma / 8 + 1)
                .with_sync(fma / 256 + 1)
                .with_branch(fma / 64 + 1),
        )
        .stream(AccessStream::raw(
            Direction::Read,
            warps(a_reads),
            4.0,
            AccessPattern::Sweep {
                working_set_bytes: a_bytes,
                sweeps: n64.div_ceil(tile).max(1) as u32,
            },
        ))
        .stream(AccessStream::raw(
            Direction::Read,
            warps(b_reads),
            4.0,
            AccessPattern::Sweep {
                working_set_bytes: b_bytes,
                sweeps: m64.div_ceil(tile).max(1) as u32,
            },
        ))
        .stream(AccessStream::write(m64 * n64, 4, AccessPattern::Streaming))
        .dependency_fraction(0.25)
        .build();
    gpu.launch(&kd);
}

/// Convolution algorithm chosen for a shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConvAlgo {
    /// 1×1 kernels lower to a plain implicit GEMM.
    ImplicitGemm1x1,
    /// 3×3 stride-1 uses Winograd.
    Winograd,
    /// Everything else uses the implicit-GEMM convolution engine.
    ImplicitSgemm,
}

/// The algorithm cuDNN-style selection picks for a convolution shape.
#[must_use]
pub(crate) fn conv_algo(kh: usize, kw: usize, stride: usize) -> ConvAlgo {
    if kh == 1 && kw == 1 {
        ConvAlgo::ImplicitGemm1x1
    } else if kh == 3 && kw == 3 && stride == 1 {
        ConvAlgo::Winograd
    } else {
        ConvAlgo::ImplicitSgemm
    }
}

/// Shared sizing for the convolution kernel family.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvShape {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub c: usize,
    /// Output channels.
    pub oc: usize,
    /// Kernel height/width.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Output spatial size.
    pub oh: usize,
    /// Output width.
    pub ow: usize,
    /// Stride.
    pub stride: usize,
}

impl ConvShape {
    fn macs(&self) -> u64 {
        (self.n * self.oc * self.oh * self.ow * self.c * self.kh * self.kw) as u64
    }
    fn input_bytes(&self) -> u64 {
        (self.n * self.c * self.oh * self.stride * self.ow * self.stride * 4) as u64
    }
    fn filter_bytes(&self) -> u64 {
        (self.oc * self.c * self.kh * self.kw * 4) as u64
    }
    fn output_elems(&self) -> u64 {
        (self.n * self.oc * self.oh * self.ow) as u64
    }
}

fn conv_kernel(name: String, s: &ConvShape, flop_scale: f64) -> KernelDesc {
    let fma = ((s.macs() as f64 * flop_scale) as u64).div_ceil(32).max(1);
    let out = s.output_elems();
    KernelDesc::builder(name)
        .launch(
            LaunchConfig::linear(out.max(128), 256)
                .with_registers(96)
                .with_shared_mem(32 * 1024),
        )
        .mix(
            InstructionMix::new()
                .with_fp32(fma)
                .with_shared(fma / 3 + 1)
                .with_int(fma / 6 + 1)
                .with_sync(fma / 256 + 1)
                .with_branch(fma / 48 + 1),
        )
        // Input activations: swept once per output-channel tile.
        .stream(AccessStream::raw(
            Direction::Read,
            warps(s.macs() / (s.kh * s.kw).max(1) as u64),
            4.0,
            AccessPattern::Sweep {
                working_set_bytes: s.input_bytes().max(128),
                sweeps: (s.oc as u32 / 32).max(1),
            },
        ))
        // Filters: broadcast across the batch.
        .stream(AccessStream::raw(
            Direction::Read,
            warps(s.macs() / 64 + 1),
            4.0,
            AccessPattern::Broadcast {
                bytes: s.filter_bytes().max(128),
            },
        ))
        .stream(AccessStream::write(out, 4, AccessPattern::Streaming))
        .dependency_fraction(0.3)
        .build()
}

/// Forward convolution.
pub(crate) fn conv2d_fwd(gpu: &mut dyn LaunchSink, s: &ConvShape) {
    let (name, scale) = match conv_algo(s.kh, s.kw, s.stride) {
        ConvAlgo::ImplicitGemm1x1 => ("ampere_scudnn_128x64_relu_interior_nn".to_owned(), 1.0),
        ConvAlgo::Winograd => (
            "ampere_scudnn_winograd_128x128_ldg1_ldg4_tile148".to_owned(),
            1.0 / 2.25,
        ),
        ConvAlgo::ImplicitSgemm => ("implicit_convolve_sgemm".to_owned(), 1.0),
    };
    gpu.launch(&conv_kernel(name, s, scale));
}

/// Backward-data convolution (also used as the forward pass of transposed
/// convolutions, as cuDNN does).
pub(crate) fn conv2d_dgrad(gpu: &mut dyn LaunchSink, s: &ConvShape) {
    gpu.launch(&conv_kernel("dgrad2d_alg1_1_engine".to_owned(), s, 1.0));
}

/// Backward-filter convolution.
pub(crate) fn conv2d_wgrad(gpu: &mut dyn LaunchSink, s: &ConvShape) {
    gpu.launch(&conv_kernel("wgrad_alg0_engine_NHWC".to_owned(), s, 1.0));
}

/// Elementwise kernel over `n` elements reading `arity` inputs and
/// performing `flops` FP32 ops per element. PyTorch's TensorIterator emits
/// a vectorized variant when the size is 4-aligned.
pub(crate) fn elementwise(gpu: &mut dyn LaunchSink, op: &str, n: usize, arity: usize, flops: u64) {
    let n64 = n as u64;
    let w = warps(n64);
    let name = if n.is_multiple_of(4) {
        format!("vectorized_elementwise_kernel_{op}")
    } else {
        format!("unrolled_elementwise_kernel_{op}")
    };
    let special = if matches!(op, "tanh" | "sigmoid" | "exp" | "dropout") {
        w
    } else {
        0
    };
    let mut b = KernelDesc::builder(name)
        .launch(LaunchConfig::linear(n64, 256))
        .mix(
            InstructionMix::new()
                .with_fp32(w * flops)
                .with_special(special)
                .with_int(w * 3)
                .with_branch(w)
                .with_misc(w),
        );
    for _ in 0..arity.max(1) {
        b = b.stream(AccessStream::read(n64, 4, AccessPattern::Streaming));
    }
    b = b.stream(AccessStream::write(n64, 4, AccessPattern::Streaming));
    gpu.launch(&b.dependency_fraction(0.3).build());
}

/// Reduction of `n` elements; big reductions run the two-pass variant.
pub(crate) fn reduce(gpu: &mut dyn LaunchSink, what: &str, n: usize) {
    let n64 = (n as u64).max(1);
    let w = warps(n64);
    let name = if n64 > 1 << 16 {
        format!("reduce_kernel_two_pass_{what}")
    } else {
        format!("reduce_kernel_{what}")
    };
    let kd = KernelDesc::builder(name)
        .launch(LaunchConfig::linear(n64, 256).with_shared_mem(2048))
        .mix(
            InstructionMix::new()
                .with_fp32(w * 2)
                .with_shared(w * 4)
                .with_sync(w / 8 + 1)
                .with_int(w * 2),
        )
        .stream(AccessStream::read(n64, 4, AccessPattern::Streaming))
        .stream(AccessStream::write(
            n64 / 256 + 1,
            4,
            AccessPattern::Streaming,
        ))
        .dependency_fraction(0.55)
        .build();
    gpu.launch(&kd);
}

/// Softmax over `rows × cols`; small rows use the warp-level kernel.
pub(crate) fn softmax(
    gpu: &mut dyn LaunchSink,
    rows: usize,
    cols: usize,
    backward: bool,
    log: bool,
) {
    let total = (rows * cols) as u64;
    let w = warps(total);
    let dir = if backward { "backward" } else { "forward" };
    let base = if log { "log_softmax" } else { "softmax" };
    let name = if cols <= 1024 {
        format!("{base}_warp_{dir}")
    } else {
        format!("cunn_{base}_block_{dir}")
    };
    let kd = KernelDesc::builder(name)
        .launch(LaunchConfig::linear((rows * 32) as u64, 128))
        .mix(
            InstructionMix::new()
                .with_fp32(w * 4)
                .with_special(w)
                .with_shared(w * 2)
                .with_int(w * 2)
                .with_branch(w),
        )
        .stream(AccessStream::read(total, 4, AccessPattern::Streaming))
        .stream(AccessStream::write(total, 4, AccessPattern::Streaming))
        .dependency_fraction(0.5)
        .build();
    gpu.launch(&kd);
}

/// Batch/instance-norm forward: statistics collection + transform
/// (two launches, matching cuDNN).
pub(crate) fn batchnorm_fwd(gpu: &mut dyn LaunchSink, n: usize, c: usize, hw: usize) {
    let total = (n * c * hw) as u64;
    let w = warps(total);
    gpu.launch(
        &KernelDesc::builder("batch_norm_collect_statistics_kernel")
            .launch(LaunchConfig::linear((c * 256) as u64, 256).with_shared_mem(4096))
            .mix(
                InstructionMix::new()
                    .with_fp32(w * 3)
                    .with_shared(w)
                    .with_sync(w / 16 + 1)
                    .with_int(w),
            )
            .stream(AccessStream::read(total, 4, AccessPattern::Streaming))
            .stream(AccessStream::write(
                c as u64 * 2,
                4,
                AccessPattern::Streaming,
            ))
            .dependency_fraction(0.5)
            .build(),
    );
    gpu.launch(
        &KernelDesc::builder("batch_norm_transform_input_kernel")
            .launch(LaunchConfig::linear(total, 256))
            .mix(InstructionMix::elementwise(total, 4))
            .stream(AccessStream::read(total, 4, AccessPattern::Streaming))
            .stream(AccessStream::read(
                c as u64 * 4,
                4,
                AccessPattern::Broadcast {
                    bytes: (c * 16) as u64,
                },
            ))
            .stream(AccessStream::write(total, 4, AccessPattern::Streaming))
            .build(),
    );
}

/// Batch/instance-norm backward: gradient reduction + elementwise apply.
pub(crate) fn batchnorm_bwd(gpu: &mut dyn LaunchSink, n: usize, c: usize, hw: usize) {
    let total = (n * c * hw) as u64;
    let w = warps(total);
    gpu.launch(
        &KernelDesc::builder("batch_norm_backward_reduce_kernel")
            .launch(LaunchConfig::linear((c * 256) as u64, 256).with_shared_mem(4096))
            .mix(
                InstructionMix::new()
                    .with_fp32(w * 4)
                    .with_shared(w)
                    .with_sync(w / 16 + 1)
                    .with_int(w),
            )
            .stream(AccessStream::read(total, 4, AccessPattern::Streaming))
            .stream(AccessStream::read(total, 4, AccessPattern::Streaming))
            .stream(AccessStream::write(
                c as u64 * 2,
                4,
                AccessPattern::Streaming,
            ))
            .dependency_fraction(0.5)
            .build(),
    );
    gpu.launch(
        &KernelDesc::builder("batch_norm_backward_elemt_kernel")
            .launch(LaunchConfig::linear(total, 256))
            .mix(InstructionMix::elementwise(total, 5))
            .stream(AccessStream::read(total, 4, AccessPattern::Streaming))
            .stream(AccessStream::read(total, 4, AccessPattern::Streaming))
            .stream(AccessStream::write(total, 4, AccessPattern::Streaming))
            .build(),
    );
}

/// Embedding gather: `n_idx` Zipf-skewed lookups of `dim`-wide rows from a
/// `vocab × dim` table.
pub(crate) fn embedding_fwd(gpu: &mut dyn LaunchSink, n_idx: usize, dim: usize, vocab: usize) {
    let total = (n_idx * dim) as u64;
    let w = warps(total);
    let kd = KernelDesc::builder("indexSelectLargeIndex_kernel")
        .launch(LaunchConfig::linear(total, 256))
        .mix(
            InstructionMix::new()
                .with_int(w * 4)
                .with_branch(w)
                .with_misc(w),
        )
        .stream(AccessStream::raw(
            Direction::Read,
            w,
            8.0,
            AccessPattern::HotCold {
                hot_fraction: 0.8,
                hot_bytes: ((vocab / 16).max(1) * dim * 4) as u64,
                cold_bytes: (vocab * dim * 4) as u64,
            },
        ))
        .stream(AccessStream::write(total, 4, AccessPattern::Streaming))
        .build();
    gpu.launch(&kd);
}

/// Embedding backward: scatter-add of gradients into the table.
pub(crate) fn embedding_bwd(gpu: &mut dyn LaunchSink, n_idx: usize, dim: usize, vocab: usize) {
    let total = (n_idx * dim) as u64;
    let w = warps(total);
    let kd = KernelDesc::builder("embedding_backward_feature_kernel")
        .launch(LaunchConfig::linear(total, 256))
        .mix(
            InstructionMix::new()
                .with_fp32(w)
                .with_int(w * 4)
                .with_branch(w * 2),
        )
        .stream(AccessStream::read(total, 4, AccessPattern::Streaming))
        .stream(AccessStream::raw(
            Direction::Write,
            w,
            8.0,
            AccessPattern::HotCold {
                hot_fraction: 0.8,
                hot_bytes: ((vocab / 16).max(1) * dim * 4) as u64,
                cold_bytes: (vocab * dim * 4) as u64,
            },
        ))
        .dependency_fraction(0.55)
        .build();
    gpu.launch(&kd);
}

/// Max-pool forward (`backward` flips to the backward kernel).
pub(crate) fn maxpool(gpu: &mut dyn LaunchSink, n_out: usize, window: usize, backward: bool) {
    let total = n_out as u64;
    let w = warps(total);
    let name = if backward {
        "max_pool_backward_nchw"
    } else {
        "max_pool_forward_nchw"
    };
    let kd = KernelDesc::builder(name)
        .launch(LaunchConfig::linear(total, 256))
        .mix(
            InstructionMix::new()
                .with_fp32(w * window as u64)
                .with_int(w * 4)
                .with_branch(w * window as u64 / 2),
        )
        .stream(AccessStream::read(
            total * window as u64,
            4,
            AccessPattern::Streaming,
        ))
        .stream(AccessStream::write(total, 4, AccessPattern::Streaming))
        .build();
    gpu.launch(&kd);
}

/// Grid-sample (bilinear) forward/backward for spatial transformers.
pub(crate) fn grid_sample(
    gpu: &mut dyn LaunchSink,
    n_out: usize,
    input_bytes: u64,
    backward: bool,
) {
    let total = n_out as u64;
    let w = warps(total);
    let name = if backward {
        "grid_sampler_2d_backward_kernel"
    } else {
        "grid_sampler_2d_kernel"
    };
    let kd = KernelDesc::builder(name)
        .launch(LaunchConfig::linear(total, 256))
        .mix(
            InstructionMix::new()
                .with_fp32(w * 12)
                .with_int(w * 8)
                .with_branch(w * 4),
        )
        .stream(AccessStream::raw(
            Direction::Read,
            w * 4,
            10.0,
            AccessPattern::RandomUniform {
                working_set_bytes: input_bytes.max(128),
            },
        ))
        .stream(AccessStream::write(total, 4, AccessPattern::Streaming))
        .dependency_fraction(0.45)
        .build();
    gpu.launch(&kd);
}

/// Affine grid generation for spatial transformers.
pub(crate) fn affine_grid(gpu: &mut dyn LaunchSink, n_points: usize) {
    let total = n_points as u64;
    let kd = KernelDesc::builder("affine_grid_generator_kernel")
        .launch(LaunchConfig::linear(total, 256))
        .mix(InstructionMix::elementwise(total, 6))
        .stream(AccessStream::read(
            64,
            4,
            AccessPattern::Broadcast { bytes: 256 },
        ))
        .stream(AccessStream::write(total * 2, 4, AccessPattern::Streaming))
        .build();
    gpu.launch(&kd);
}

/// Tensor copy / concatenation.
pub(crate) fn copy(gpu: &mut dyn LaunchSink, what: &str, n: usize) {
    let total = (n as u64).max(1);
    let kd = KernelDesc::builder(format!("CatArrayBatchedCopy_{what}"))
        .launch(LaunchConfig::linear(total, 256))
        .mix(InstructionMix::elementwise(total, 0))
        .stream(AccessStream::read(total, 4, AccessPattern::Streaming))
        .stream(AccessStream::write(total, 4, AccessPattern::Streaming))
        .build();
    gpu.launch(&kd);
}

/// Fused Adam parameter update over `n` parameters: reads parameter,
/// gradient and both moments, writes all but the gradient — the heavily
/// memory-bound optimizer kernel that dominates LGT-style training.
pub(crate) fn adam_step(gpu: &mut dyn LaunchSink, n: usize) {
    let total = (n as u64).max(1);
    let w = warps(total);
    let kd = KernelDesc::builder("multi_tensor_apply_adam_kernel")
        .launch(LaunchConfig::linear(total, 512))
        .mix(
            InstructionMix::new()
                .with_fp32(w * 11)
                .with_special(w)
                .with_int(w * 2),
        )
        .stream(AccessStream::read(total, 4, AccessPattern::Streaming))
        .stream(AccessStream::read(total, 4, AccessPattern::Streaming))
        .stream(AccessStream::read(total, 4, AccessPattern::Streaming))
        .stream(AccessStream::read(total, 4, AccessPattern::Streaming))
        .stream(AccessStream::write(total, 4, AccessPattern::Streaming))
        .stream(AccessStream::write(total, 4, AccessPattern::Streaming))
        .stream(AccessStream::write(total, 4, AccessPattern::Streaming))
        .dependency_fraction(0.25)
        .build();
    gpu.launch(&kd);
}

/// Fused SGD (+momentum) update.
pub(crate) fn sgd_step(gpu: &mut dyn LaunchSink, n: usize) {
    let total = (n as u64).max(1);
    let w = warps(total);
    let kd = KernelDesc::builder("sgd_momentum_update_kernel")
        .launch(LaunchConfig::linear(total, 512))
        .mix(InstructionMix::new().with_fp32(w * 4).with_int(w * 2))
        .stream(AccessStream::read(total, 4, AccessPattern::Streaming))
        .stream(AccessStream::read(total, 4, AccessPattern::Streaming))
        .stream(AccessStream::write(total, 4, AccessPattern::Streaming))
        .stream(AccessStream::write(total, 4, AccessPattern::Streaming))
        .build();
    gpu.launch(&kd);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_gpu::{Device, Gpu};

    fn gpu() -> Gpu {
        Gpu::new(Device::rtx3080())
    }

    #[test]
    fn gemm_tile_selection_by_shape() {
        let mut g = gpu();
        gemm(&mut g, 512, 512, 256, false, false);
        gemm(&mut g, 96, 96, 64, true, false);
        gemm(&mut g, 16, 16, 8, false, true);
        gemm(&mut g, 64, 1, 128, false, false);
        let names: Vec<&str> = g.records().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names[0], "ampere_sgemm_128x128_nn");
        assert_eq!(names[1], "ampere_sgemm_64x64_tn");
        assert_eq!(names[2], "ampere_sgemm_32x32_nt");
        assert_eq!(names[3], "gemv2T_kernel_val_nn");
    }

    #[test]
    fn big_gemm_is_compute_intensive() {
        let mut g = gpu();
        let elbow = g.device().elbow_intensity();
        gemm(&mut g, 1024, 1024, 1024, false, false);
        let m = g.records()[0].metrics;
        assert!(
            m.instruction_intensity > elbow,
            "II {} vs elbow {elbow}",
            m.instruction_intensity
        );
        assert!(m.gips > 100.0, "gips {}", m.gips);
    }

    #[test]
    fn conv_algo_selection() {
        assert_eq!(conv_algo(1, 1, 1), ConvAlgo::ImplicitGemm1x1);
        assert_eq!(conv_algo(3, 3, 1), ConvAlgo::Winograd);
        assert_eq!(conv_algo(3, 3, 2), ConvAlgo::ImplicitSgemm);
        assert_eq!(conv_algo(5, 5, 1), ConvAlgo::ImplicitSgemm);
    }

    #[test]
    fn conv_fwd_bwd_have_distinct_kernel_names() {
        let mut g = gpu();
        let s = ConvShape {
            n: 4,
            c: 16,
            oc: 32,
            kh: 3,
            kw: 3,
            oh: 16,
            ow: 16,
            stride: 1,
        };
        conv2d_fwd(&mut g, &s);
        conv2d_dgrad(&mut g, &s);
        conv2d_wgrad(&mut g, &s);
        let names: Vec<&str> = g.records().iter().map(|r| r.name.as_str()).collect();
        assert!(names[0].contains("winograd"));
        assert!(names[1].contains("dgrad"));
        assert!(names[2].contains("wgrad"));
    }

    #[test]
    fn elementwise_vectorization_by_alignment() {
        let mut g = gpu();
        elementwise(&mut g, "relu", 1024, 1, 1);
        elementwise(&mut g, "relu", 1023, 1, 1);
        let names: Vec<&str> = g.records().iter().map(|r| r.name.as_str()).collect();
        assert!(names[0].starts_with("vectorized_"));
        assert!(names[1].starts_with("unrolled_"));
    }

    #[test]
    fn elementwise_is_memory_intensive() {
        let mut g = gpu();
        let elbow = g.device().elbow_intensity();
        elementwise(&mut g, "add", 1 << 22, 2, 1);
        let m = g.records()[0].metrics;
        assert!(m.instruction_intensity < elbow);
    }

    #[test]
    fn adam_is_memory_bandwidth_bound() {
        let mut g = gpu();
        adam_step(&mut g, 1 << 22);
        let r = &g.records()[0];
        let roof = r.metrics.instruction_intensity * g.device().peak_gtxn_per_s();
        assert!(
            r.metrics.gips > 0.8 * roof,
            "adam should ride the memory roof: {} vs {roof}",
            r.metrics.gips
        );
    }

    #[test]
    fn softmax_variant_by_width() {
        let mut g = gpu();
        softmax(&mut g, 32, 128, false, false);
        softmax(&mut g, 32, 4096, false, true);
        softmax(&mut g, 32, 128, true, false);
        let names: Vec<&str> = g.records().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names[0], "softmax_warp_forward");
        assert_eq!(names[1], "cunn_log_softmax_block_forward");
        assert_eq!(names[2], "softmax_warp_backward");
    }

    #[test]
    fn batchnorm_emits_two_kernels_each_way() {
        let mut g = gpu();
        batchnorm_fwd(&mut g, 8, 16, 64);
        batchnorm_bwd(&mut g, 8, 16, 64);
        assert_eq!(g.records().len(), 4);
    }

    #[test]
    fn reduce_switches_to_two_pass() {
        let mut g = gpu();
        reduce(&mut g, "sum", 1000);
        reduce(&mut g, "sum", 1 << 20);
        let names: Vec<&str> = g.records().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names[0], "reduce_kernel_sum");
        assert_eq!(names[1], "reduce_kernel_two_pass_sum");
    }
}
