//! Property tests over the device model: for arbitrary kernel descriptors
//! the timing must be positive and finite, no kernel may beat its roofline,
//! all ratio metrics must stay in `[0, 1]`, and adding work must never make
//! a kernel faster.

use cactus_gpu::access::{AccessPattern, AccessStream};
use cactus_gpu::instmix::InstructionMix;
use cactus_gpu::kernel::KernelDesc;
use cactus_gpu::launch::LaunchConfig;
use cactus_gpu::{Device, Gpu};

use proptest::prelude::*;

fn arb_pattern() -> impl Strategy<Value = AccessPattern> {
    prop_oneof![
        Just(AccessPattern::Streaming),
        (1u64..1 << 26).prop_map(|ws| AccessPattern::RandomUniform {
            working_set_bytes: ws
        }),
        ((1u64..1 << 24), (1u32..16)).prop_map(|(ws, s)| AccessPattern::Sweep {
            working_set_bytes: ws,
            sweeps: s
        }),
        ((0.0f64..1.0), (1u64..1 << 18), (1u64..1 << 26)).prop_map(|(f, h, c)| {
            AccessPattern::HotCold {
                hot_fraction: f,
                hot_bytes: h,
                cold_bytes: c,
            }
        }),
        (1u64..1 << 16).prop_map(|b| AccessPattern::Broadcast { bytes: b }),
    ]
}

fn arb_kernel() -> impl Strategy<Value = KernelDesc> {
    (
        1u64..1 << 24, // threads
        32u32..1024,   // threads per block
        0u64..4096,    // fp32 per warp
        0u64..512,     // loads per warp
        1.0f64..32.0,  // coalescing
        arb_pattern(),
        0.0f64..1.0, // dependency fraction
    )
        .prop_map(|(n, tpb, fp, loads, txn, pattern, dep)| {
            let lc = LaunchConfig::linear(n, tpb);
            let warps = lc.total_warps();
            KernelDesc::builder("prop_kernel")
                .launch(lc)
                .mix(
                    InstructionMix::new()
                        .with_fp32(warps * fp)
                        .with_int(warps * 2)
                        .with_load(warps * loads),
                )
                .stream(AccessStream::raw(
                    cactus_gpu::access::Direction::Read,
                    warps * loads.max(1),
                    txn,
                    pattern,
                ))
                .dependency_fraction(dep)
                .build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Timing is positive/finite and ratio metrics stay in range for any
    /// kernel shape.
    #[test]
    fn metrics_are_sane_for_arbitrary_kernels(kernel in arb_kernel()) {
        let mut gpu = Gpu::new(Device::rtx3080());
        let m = gpu.launch(&kernel).metrics;
        prop_assert!(m.duration_s > 0.0 && m.duration_s.is_finite());
        prop_assert!(m.gips >= 0.0 && m.gips.is_finite());
        prop_assert!(m.instruction_intensity >= 0.0);
        for v in [
            m.sm_efficiency, m.l1_hit_rate, m.l2_hit_rate, m.ldst_utilization,
            m.sp_utilization, m.fraction_branches, m.fraction_ldst,
            m.execution_stall, m.pipe_stall, m.sync_stall, m.memory_stall,
        ] {
            prop_assert!((0.0..=1.0).contains(&v), "ratio {v}");
        }
        let total_stall =
            m.execution_stall + m.pipe_stall + m.sync_stall + m.memory_stall;
        prop_assert!(total_stall <= 1.0 + 1e-9, "stalls sum to {total_stall}");
        prop_assert!(m.warp_occupancy <= 48.0 + 1e-9);
    }

    /// No kernel beats the roofline: GIPS ≤ min(peak, II × GTXN/s).
    #[test]
    fn no_kernel_beats_its_roof(kernel in arb_kernel()) {
        let device = Device::rtx3080();
        let peak = device.peak_gips();
        let gtxn = device.peak_gtxn_per_s();
        let mut gpu = Gpu::new(device);
        let m = gpu.launch(&kernel).metrics;
        prop_assert!(m.gips <= peak * 1.0001, "{} > compute roof", m.gips);
        if m.dram_transactions >= 1.0 {
            let mem_roof = m.instruction_intensity * gtxn;
            prop_assert!(
                m.gips <= mem_roof.min(peak) * 1.02,
                "{} GIPS above roof {mem_roof}",
                m.gips
            );
        }
    }

    /// Adding FP32 work never makes a kernel finish sooner.
    #[test]
    fn more_work_is_never_faster(
        n in 1u64..1 << 22,
        fp in 1u64..2048,
        extra in 1u64..2048,
    ) {
        let lc = LaunchConfig::linear(n, 256);
        let warps = lc.total_warps();
        let run = |flops: u64| -> f64 {
            let k = KernelDesc::builder("k")
                .launch(lc)
                .mix(InstructionMix::new().with_fp32(warps * flops))
                .build();
            let mut gpu = Gpu::new(Device::rtx3080());
            gpu.launch(&k).metrics.duration_s
        };
        prop_assert!(run(fp + extra) >= run(fp) - 1e-15);
    }

    /// A larger grid of the same per-thread work never finishes sooner.
    #[test]
    fn more_threads_are_never_faster(n in 1u64..1 << 20, factor in 2u64..8) {
        let run = |threads: u64| -> f64 {
            let lc = LaunchConfig::linear(threads, 256);
            let warps = lc.total_warps();
            let k = KernelDesc::builder("k")
                .launch(lc)
                .mix(InstructionMix::new().with_fp32(warps * 64))
                .stream(AccessStream::read(threads, 4, AccessPattern::Streaming))
                .build();
            let mut gpu = Gpu::new(Device::rtx3080());
            gpu.launch(&k).metrics.duration_s
        };
        // Relative tolerance: ceil-based warp/load counts make the
        // per-warp instruction count wobble at the 1e-5 level.
        let (small, big) = (run(n), run(n * factor));
        prop_assert!(big >= small * (1.0 - 1e-3), "{small} -> {big}");
    }
}
