//! A float in a `/v1` table body is `format!("{:e}")` or `format!("{:.6}")`
//! of its value, byte for byte. The `{:e}` side is read off the kernels
//! view (`cactus_profiler::csv::push_kernel_rows`: times, transactions and
//! every metric), the `{:.6}` side off the devices and compare tables
//! (`wire::write_devices`, `wire::write_compare`), on the values the two
//! formats treat specially and on arbitrary bits.

use proptest::prelude::*;

use cactus_gpu::metrics::KernelMetrics;
use cactus_profiler::{csv, KernelStats, Profile};
use cactus_serve::wire::{write_compare, write_devices};
use cactus_serve::{CompareRow, DeviceEntry, DeviceId};

/// The kernels view of a one-kernel profile whose every float is `x`: the
/// fields the view prints with `{:e}`.
fn exp_fields(x: f64) -> Vec<String> {
    let kernel = KernelStats {
        name: "k".to_owned(),
        invocations: 1,
        total_time_s: x,
        warp_instructions: 1,
        dram_transactions: x,
        metrics: KernelMetrics {
            duration_s: x,
            warp_instructions: 1,
            dram_transactions: x,
            gips: x,
            instruction_intensity: x,
            warp_occupancy: x,
            sm_efficiency: x,
            l1_hit_rate: x,
            l2_hit_rate: x,
            dram_read_throughput_gbps: x,
            ldst_utilization: x,
            sp_utilization: x,
            fraction_branches: x,
            fraction_ldst: x,
            execution_stall: x,
            pipe_stall: x,
            sync_stall: x,
            memory_stall: x,
        },
    };
    let mut out = String::new();
    csv::push_kernel_rows(&mut out, "w", &Profile::from_kernel_stats(vec![kernel]));
    let row = out.strip_suffix('\n').expect("one row");
    // workload, kernel, invocations, [total_time_s], time_share,
    // warp_instructions, [dram_transactions], [metrics...]
    row.split(',')
        .enumerate()
        .filter(|&(i, _)| i == 3 || i >= 6)
        .map(|(_, f)| f.to_owned())
        .collect()
}

/// The devices and compare tables with every float `x`: the fields they
/// print with `{:.6}`.
fn fixed6_fields(x: f64) -> Vec<String> {
    let device = DeviceId::resolve("rtx-3080").expect("catalog device");
    let mut out = String::new();
    write_devices(
        &mut out,
        &[DeviceEntry {
            id: device,
            modeled: true,
            name: "n".to_owned(),
            store_version: "v".to_owned(),
            sm_count: 1,
            peak_gips: x,
            peak_gtxn_per_s: x,
            elbow_intensity: x,
            dram_bandwidth_gbps: x,
            l2_bytes: 1,
        }],
    );
    write_compare(
        &mut out,
        &[CompareRow {
            device,
            kernel: "k".to_owned(),
            instruction_intensity: x,
            gips: x,
            time_share: x,
            intensity_class: "c".to_owned(),
            boundedness: "b".to_owned(),
            bottleneck_shift: false,
        }],
    );
    let lines: Vec<&str> = out.lines().collect();
    let &[_, devices, _, compare] = lines.as_slice() else {
        panic!("two headers and two rows: {out:?}");
    };
    let devices: Vec<&str> = devices.split(',').collect();
    let compare: Vec<&str> = compare.split(',').collect();
    devices[5..9]
        .iter()
        .chain(&compare[2..5])
        .map(|f| (*f).to_owned())
        .collect()
}

fn check(x: f64) {
    let e = format!("{x:e}");
    for field in exp_fields(x) {
        assert_eq!(field, e, "{{:e}} of {x:?} ({:#018x})", x.to_bits());
    }
    let f = format!("{x:.6}");
    for field in fixed6_fields(x) {
        assert_eq!(field, f, "{{:.6}} of {x:?} ({:#018x})", x.to_bits());
    }
}

/// `x`, and the floats one step below and above it.
fn with_neighbours(x: f64) -> [f64; 3] {
    [x.next_down(), x, x.next_up()]
}

#[test]
fn zeros_subnormals_extremes_infinities_and_nans() {
    let values = [
        0.0,
        f64::from_bits(1),
        f64::from_bits(2),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE / 4.0,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        1.0,
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
        f64::from_bits(0x7ff8_0000_dead_beef),
        f64::from_bits(0x7ff0_0000_0000_0001),
        // A plain half, a short decimal, and an even integer past 2^54.
        1.5,
        123.456,
        2e16,
    ];
    for x in values {
        for y in with_neighbours(x) {
            check(y);
            check(-y);
        }
    }
}

#[test]
fn powers_of_ten() {
    for e in -325..=308 {
        let x: f64 = format!("1e{e}").parse().expect("a power of ten parses");
        for y in with_neighbours(x) {
            check(y);
            check(-y);
        }
    }
}

#[test]
fn powers_of_two() {
    for e in -1074i32..=1023 {
        let x = if e < -1022 {
            f64::from_bits(1 << (e + 1074))
        } else {
            f64::from_bits(u64::try_from(e + 1023).expect("a normal exponent") << 52)
        };
        assert_eq!(x.log2(), f64::from(e), "2^{e}");
        for y in with_neighbours(x) {
            check(y);
        }
        check(3.0 * x);
    }
}

/// `n + j/128` for odd `j` sits exactly halfway between two six-decimal
/// values (`j/128 = j·7812.5 µ`); the floats beside it are just off it.
#[test]
fn halfway_cases_at_the_sixth_decimal() {
    for n in [0.0, 1.0, 7.0, 1234.0, 65_535.0, 1e9, 2f64.powi(40)] {
        for j in (1..128).step_by(2) {
            let x = n + f64::from(j) / 128.0;
            assert_eq!((x - n) * 128.0, f64::from(j), "{n} + {j}/128 is exact");
            for y in with_neighbours(x) {
                check(y);
                check(-y);
            }
        }
    }
    // Halfway cases between integers and one millionth.
    for j in (1..2000).step_by(2) {
        check(f64::from(j) / 2.0);
        check(f64::from(j) * 5e-7);
    }
}

fn magnitudes() -> impl Strategy<Value = f64> {
    // Log-uniform over the magnitudes a profile holds (seconds to counts).
    (-15.0f64..15.0, 1.0f64..10.0).prop_map(|(e, m)| m * 10f64.powf(e.floor()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn arbitrary_bits(bits in prop_oneof![0u64..u64::MAX, proptest::sample::select(&[u64::MAX])]) {
        check(f64::from_bits(bits));
    }

    #[test]
    fn profile_magnitudes(x in magnitudes(), share in 0.0f64..1.0) {
        check(x);
        check(share);
    }
}
