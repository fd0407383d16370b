//! The single-buffer renderers are byte-identical — not merely
//! round-trip-equivalent — to the `format!`-per-field implementations they
//! replaced, which are kept here as the oracles.

use proptest::prelude::*;

use cactus_gpu::metrics::{KernelMetrics, MetricId};
use cactus_profiler::{csv, store, KernelStats, Profile};

// ---- oracles: the renderers as they were, one `String` per field ----

fn write_profile_oracle(profile: &Profile) -> String {
    let f64_bits = |x: f64| format!("{:016x}", x.to_bits());
    let escape_name = |name: &str| {
        name.replace('\\', "\\\\")
            .replace('\t', "\\t")
            .replace('\n', "\\n")
    };
    let kernels = profile.kernels();
    let mut out = String::new();
    out.push_str(store::FORMAT_HEADER);
    out.push('\n');
    out.push_str(&format!("kernels {}\n", kernels.len()));
    for k in kernels {
        let m = &k.metrics;
        let mut words = vec![
            "k".to_owned(),
            escape_name(&k.name),
            k.invocations.to_string(),
            f64_bits(k.total_time_s),
            k.warp_instructions.to_string(),
            f64_bits(k.dram_transactions),
            f64_bits(m.duration_s),
            m.warp_instructions.to_string(),
        ];
        words.extend(
            [
                m.dram_transactions,
                m.gips,
                m.instruction_intensity,
                m.warp_occupancy,
                m.sm_efficiency,
                m.l1_hit_rate,
                m.l2_hit_rate,
                m.dram_read_throughput_gbps,
                m.ldst_utilization,
                m.sp_utilization,
                m.fraction_branches,
                m.fraction_ldst,
                m.execution_stall,
                m.pipe_stall,
                m.sync_stall,
                m.memory_stall,
            ]
            .map(f64_bits),
        );
        out.push_str(&words.join("\t"));
        out.push('\n');
    }
    out
}

fn csv_escape_oracle(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

fn to_csv_oracle(workload: &str, profile: &Profile) -> String {
    let mut cols = vec![
        "workload".to_owned(),
        "kernel".to_owned(),
        "invocations".to_owned(),
        "total_time_s".to_owned(),
        "time_share".to_owned(),
        "warp_instructions".to_owned(),
        "dram_transactions".to_owned(),
    ];
    cols.extend(
        MetricId::ALL
            .iter()
            .map(|id| id.name().to_lowercase().replace([' ', '/'], "_")),
    );
    let mut out = cols.join(",");
    out.push('\n');
    let total = profile.total_time_s();
    for k in profile.kernels() {
        let mut fields = vec![
            csv_escape_oracle(workload),
            csv_escape_oracle(&k.name),
            k.invocations.to_string(),
            format!("{:e}", k.total_time_s),
            format!("{:.6}", k.time_share(total)),
            k.warp_instructions.to_string(),
            format!("{:e}", k.dram_transactions),
        ];
        fields.extend(
            MetricId::ALL
                .iter()
                .map(|&id| format!("{:e}", k.metrics.get(id))),
        );
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

// ---- inputs: every value class the formats treat specially ----

fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(f64::from_bits),
        0.0f64..1e12,
        proptest::sample::select(&[
            f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with a payload
            f64::from_bits(0xfff0_0000_0000_0001), // signalling, negative
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::from_bits(1),       // the smallest subnormal
            f64::MAX,
        ]),
    ]
}

fn any_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..1_000_000,
        0u64..u64::MAX,
        proptest::sample::select(&[0, 1, u64::MAX])
    ]
}

/// Names over an alphabet dense in what either format escapes or quotes.
fn any_name() -> impl Strategy<Value = String> {
    let alphabet = [
        'a', 'Z', '_', '7', ' ', '\t', '\n', '\r', '\\', ',', '"', 'é',
    ];
    prop::collection::vec(proptest::sample::select(&alphabet), 0..12)
        .prop_map(|chars| chars.into_iter().collect())
}

fn any_kernel() -> impl Strategy<Value = KernelStats> {
    (
        (any_name(), any_u64(), any_u64(), any_u64()),
        prop::collection::vec(any_f64(), 19),
    )
        .prop_map(
            |((name, invocations, warp_instructions, metric_warps), x)| KernelStats {
                name,
                invocations,
                total_time_s: x[0],
                warp_instructions,
                dram_transactions: x[1],
                metrics: KernelMetrics {
                    duration_s: x[2],
                    warp_instructions: metric_warps,
                    dram_transactions: x[3],
                    gips: x[4],
                    instruction_intensity: x[5],
                    warp_occupancy: x[6],
                    sm_efficiency: x[7],
                    l1_hit_rate: x[8],
                    l2_hit_rate: x[9],
                    dram_read_throughput_gbps: x[10],
                    ldst_utilization: x[11],
                    sp_utilization: x[12],
                    fraction_branches: x[13],
                    fraction_ldst: x[14],
                    execution_stall: x[15],
                    pipe_stall: x[16],
                    sync_stall: x[17],
                    memory_stall: x[18],
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn write_profile_and_to_csv_match_their_oracles(
        kernels in prop::collection::vec(any_kernel(), 0..6),
        workload in any_name(),
    ) {
        let profile = Profile::from_kernel_stats(kernels);
        let document = store::write_profile(&profile);
        prop_assert_eq!(&document, &write_profile_oracle(&profile));
        prop_assert_eq!(csv::to_csv(&workload, &profile), to_csv_oracle(&workload, &profile));

        // The property ingest's canonical check rests on: what was
        // written parses, and its parse renders the same bytes. (A NaN time
        // has no place in dominance order, so a re-sort may move it.)
        let back = store::read_profile(&document).expect("own output parses");
        if profile.kernels().iter().all(|k| !k.total_time_s.is_nan()) {
            prop_assert_eq!(store::write_profile(&back), document);
        }
    }
}

#[test]
fn the_header_names_every_metric_once() {
    let header = csv::kernel_header();
    assert_eq!(header.split(',').count(), 7 + MetricId::ALL.len());
    assert!(header.starts_with("workload,kernel,invocations,"));
    assert!(header.ends_with(",sync_stall,memory_stall"), "{header}");
    assert!(header.contains(",ld_st_utilization,"), "{header}");
}
