//! Exact serialization of [`Profile`]s for the shared profile store.
//!
//! The daemon and the fig/table binaries in `cactus-bench` all consume the
//! same simulated profiles; the store lets one run simulate a triple and
//! every later reader load the result instead of re-simulating. The format is a
//! line-oriented text format with **bit-exact** float round-tripping: every
//! `f64` is written as the 16-hex-digit encoding of its IEEE-754 bits, so a
//! loaded profile compares equal (`==`) to the profile that was saved —
//! including NaN payloads — and downstream figures are byte-identical
//! whether they came from a live simulation or from the store.
//!
//! Format (tab-separated where multi-field):
//!
//! ```text
//! cactus-profile v1
//! kernels <count>
//! k <name> <invocations> <total_time_s> <warp_instructions>
//!   <dram_transactions> <18 metric words>
//! ```
//!
//! Kernel names escape backslash, tab, and newline; all other bytes pass
//! through. Kernels appear in dominance order, matching
//! [`Profile::kernels`].

use crate::{KernelStats, Profile};
use cactus_gpu::metrics::KernelMetrics;

use std::fmt::{self, Write as _};

/// Magic first line; bump the version when the format changes.
pub const FORMAT_HEADER: &str = "cactus-profile v1";

/// Why a stored profile failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// First line was not [`FORMAT_HEADER`].
    BadHeader(String),
    /// A line did not match the expected shape.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// Fewer kernel lines than the declared count.
    Truncated,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadHeader(got) => {
                write!(f, "bad profile header {got:?} (want {FORMAT_HEADER:?})")
            }
            StoreError::Malformed { line, reason } => {
                write!(f, "malformed profile at line {line}: {reason}")
            }
            StoreError::Truncated => write!(f, "profile ends before declared kernel count"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Bytes of one kernel line around its name: the tag, 20 hex words, three
/// integers at their widest, the tabs and the newline.
const KERNEL_LINE_BYTES: usize = 2 + 20 * 17 + 3 * 21 + 1;

/// Serialize a profile. Inverse of [`read_profile`]. The document is
/// appended field by field into one pre-sized buffer.
#[must_use]
pub fn write_profile(profile: &Profile) -> String {
    let kernels = profile.kernels();
    let names: usize = kernels.iter().map(|k| k.name.len()).sum();
    let mut out = String::with_capacity(64 + names + kernels.len() * KERNEL_LINE_BYTES);
    let _ = writeln!(out, "{FORMAT_HEADER}\nkernels {}", kernels.len());
    for k in kernels {
        out.push_str("k\t");
        push_escaped_name(&mut out, &k.name);
        let _ = write!(out, "\t{}", k.invocations);
        push_f64(&mut out, k.total_time_s);
        let _ = write!(out, "\t{}", k.warp_instructions);
        push_f64(&mut out, k.dram_transactions);
        // The 18 fields of `KernelMetrics`, in declaration order.
        let m = &k.metrics;
        push_f64(&mut out, m.duration_s);
        let _ = write!(out, "\t{}", m.warp_instructions);
        for x in [
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
        ] {
            push_f64(&mut out, x);
        }
        out.push('\n');
    }
    out
}

/// Parse a profile serialized by [`write_profile`].
///
/// # Errors
///
/// Returns a [`StoreError`] describing the first structural problem found.
pub fn read_profile(text: &str) -> Result<Profile, StoreError> {
    let mut lines = text.lines().enumerate();

    let (_, header) = lines.next().ok_or(StoreError::BadHeader(String::new()))?;
    if header != FORMAT_HEADER {
        return Err(StoreError::BadHeader(header.to_owned()));
    }

    let (line_no, count_line) = lines.next().ok_or(StoreError::Truncated)?;
    let count: usize = count_line
        .strip_prefix("kernels ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| StoreError::Malformed {
            line: line_no + 1,
            reason: format!("expected `kernels <count>`, got {count_line:?}"),
        })?;

    // `count` is input: a kernel line is never shorter than its 23 tabs
    // and a newline, so the text bounds what is worth reserving.
    let mut kernels = Vec::with_capacity(count.min(text.len() / 24));
    for _ in 0..count {
        let (line_no, line) = lines.next().ok_or(StoreError::Truncated)?;
        kernels.push(parse_kernel_line(line, line_no + 1)?);
    }
    if let Some((line_no, _)) = lines.find(|(_, line)| !line.is_empty()) {
        return Err(StoreError::Malformed {
            line: line_no + 1,
            reason: format!("content after the last of {count} declared kernel lines"),
        });
    }
    Ok(Profile::from_kernel_stats(kernels))
}

fn parse_kernel_line(line: &str, line_no: usize) -> Result<KernelStats, StoreError> {
    let err = |reason: String| StoreError::Malformed {
        line: line_no,
        reason,
    };
    // tag, name, invocations, total_time, warp_insts, dram_txns, 18 metrics.
    const EXPECTED: usize = 6 + 18;
    let arity = || {
        err(format!(
            "expected {EXPECTED} tab-separated kernel fields starting with `k`, got {}",
            line.split('\t').count()
        ))
    };
    let mut fields = line.split('\t');
    if fields.next() != Some("k") {
        return Err(arity());
    }
    let mut field = || fields.next().ok_or_else(arity);
    let parse_u64 = |s: &str, what: &str| {
        s.parse::<u64>()
            .map_err(|_| err(format!("bad {what}: {s:?}")))
    };
    let parse_f64 = |s: &str, what: &str| {
        parse_f64_bits(s).ok_or_else(|| err(format!("bad {what} bits: {s:?}")))
    };

    let name = unescape_name(field()?);
    let invocations = parse_u64(field()?, "invocation count")?;
    let total_time_s = parse_f64(field()?, "total time")?;
    let warp_instructions = parse_u64(field()?, "warp instructions")?;
    let dram_transactions = parse_f64(field()?, "dram transactions")?;

    // Struct fields evaluate in the order written: declaration order.
    let metrics = KernelMetrics {
        duration_s: parse_f64(field()?, "duration_s")?,
        warp_instructions: parse_u64(field()?, "metric warp_instructions")?,
        dram_transactions: parse_f64(field()?, "metric dram_transactions")?,
        gips: parse_f64(field()?, "gips")?,
        instruction_intensity: parse_f64(field()?, "instruction_intensity")?,
        warp_occupancy: parse_f64(field()?, "warp_occupancy")?,
        sm_efficiency: parse_f64(field()?, "sm_efficiency")?,
        l1_hit_rate: parse_f64(field()?, "l1_hit_rate")?,
        l2_hit_rate: parse_f64(field()?, "l2_hit_rate")?,
        dram_read_throughput_gbps: parse_f64(field()?, "dram_read_throughput_gbps")?,
        ldst_utilization: parse_f64(field()?, "ldst_utilization")?,
        sp_utilization: parse_f64(field()?, "sp_utilization")?,
        fraction_branches: parse_f64(field()?, "fraction_branches")?,
        fraction_ldst: parse_f64(field()?, "fraction_ldst")?,
        execution_stall: parse_f64(field()?, "execution_stall")?,
        pipe_stall: parse_f64(field()?, "pipe_stall")?,
        sync_stall: parse_f64(field()?, "sync_stall")?,
        memory_stall: parse_f64(field()?, "memory_stall")?,
    };
    if fields.next().is_some() {
        return Err(arity());
    }

    Ok(KernelStats {
        name,
        invocations,
        total_time_s,
        warp_instructions,
        dram_transactions,
        metrics,
    })
}

/// Append a tab and the 16 lower-case hex digits of `x`'s IEEE-754 bits.
fn push_f64(out: &mut String, x: f64) {
    let bits = x.to_bits();
    out.push('\t');
    for shift in (0..16).rev() {
        let nibble = (bits >> (shift * 4)) as u32 & 0xF;
        out.push(char::from_digit(nibble, 16).unwrap_or('0'));
    }
}

fn parse_f64_bits(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Append `name` with backslash, tab and newline escaped.
fn push_escaped_name(out: &mut String, name: &str) {
    let mut rest = name;
    while let Some(at) = rest.find(['\\', '\t', '\n']) {
        let (plain, special) = rest.split_at(at);
        out.push_str(plain);
        out.push_str(match special.as_bytes().first() {
            Some(b'\t') => "\\t",
            Some(b'\n') => "\\n",
            _ => "\\\\",
        });
        rest = special.get(1..).unwrap_or("");
    }
    out.push_str(rest);
}

fn unescape_name(escaped: &str) -> String {
    if !escaped.contains('\\') {
        return escaped.to_owned();
    }
    let mut out = String::with_capacity(escaped.len());
    let mut chars = escaped.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_gpu::prelude::*;
    use proptest::prelude::*;

    fn sample_profile() -> Profile {
        let mut gpu = Gpu::new(Device::rtx3080());
        for (name, n) in [("gemm", 1 << 22), ("reduce", 1 << 20), ("gemm", 1 << 22)] {
            let k = KernelDesc::builder(name)
                .launch(LaunchConfig::linear(n, 256))
                .stream(AccessStream::read(n, 4, AccessPattern::Streaming))
                .stream(AccessStream::write(n, 4, AccessPattern::Streaming))
                .build();
            gpu.launch(&k);
        }
        Profile::from_records(gpu.records())
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let original = sample_profile();
        let text = write_profile(&original);
        let loaded = read_profile(&text).expect("roundtrip parse");
        assert_eq!(loaded, original);
        assert_eq!(
            loaded.total_time_s().to_bits(),
            original.total_time_s().to_bits()
        );
        // Re-serializing the loaded profile reproduces the bytes.
        assert_eq!(write_profile(&loaded), text);
    }

    #[test]
    fn empty_profile_roundtrips() {
        let empty = Profile::from_records(&[]);
        let loaded = read_profile(&write_profile(&empty)).expect("parse");
        assert_eq!(loaded, empty);
    }

    #[test]
    fn names_with_escapes_roundtrip() {
        for name in ["a\tb\\c\nd", "plain_kernel", "\\", "ends\\", "é\tü"] {
            let mut escaped = String::new();
            push_escaped_name(&mut escaped, name);
            assert!(!escaped.contains(['\t', '\n']), "{escaped:?}");
            assert_eq!(unescape_name(&escaped), name);
        }
    }

    #[test]
    fn rejects_wrong_header() {
        let err = read_profile("something else\n").unwrap_err();
        assert!(matches!(err, StoreError::BadHeader(_)));
    }

    #[test]
    fn rejects_truncated_and_malformed() {
        let good = write_profile(&sample_profile());
        let mut lines: Vec<&str> = good.lines().collect();
        let dropped = lines.pop().expect("has kernel lines");
        let truncated = lines.join("\n");
        assert_eq!(read_profile(&truncated).unwrap_err(), StoreError::Truncated);

        let mangled = format!("{}\n{}", truncated, dropped.replace('\t', " "));
        assert!(matches!(
            read_profile(&mangled).unwrap_err(),
            StoreError::Malformed { .. }
        ));
    }

    #[test]
    fn rejects_content_after_the_last_kernel_line() {
        let good = write_profile(&sample_profile());
        let kernels = sample_profile().kernel_count();
        for extra in ["k\tnot\tcounted\n", "anything\n", " \n", "\n\nlate\n"] {
            let err = read_profile(&format!("{good}{extra}")).unwrap_err();
            assert!(
                matches!(&err, StoreError::Malformed { line, .. } if *line >= kernels + 3),
                "{extra:?}: {err}"
            );
        }
        // Blank lines are not content.
        assert_eq!(read_profile(&format!("{good}\n\n")), read_profile(&good));
    }

    #[test]
    fn a_declared_count_larger_than_the_text_is_truncated_not_reserved() {
        let text = format!("{FORMAT_HEADER}\nkernels {}\n", usize::MAX);
        assert_eq!(read_profile(&text).unwrap_err(), StoreError::Truncated);
    }

    #[test]
    fn special_floats_roundtrip() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e-300] {
            let mut field = String::new();
            push_f64(&mut field, x);
            assert_eq!(field, format!("\t{:016x}", x.to_bits()));
            let back = parse_f64_bits(&field[1..]).expect("parse bits");
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    /// Names over the renderer tests' alphabet: what the document escapes,
    /// what CSV quotes, a carriage return and a multi-byte character.
    fn any_name() -> impl Strategy<Value = String> {
        let alphabet = [
            'a', 'Z', '_', '7', ' ', '\t', '\n', '\r', '\\', ',', '"', 'é',
        ];
        prop::collection::vec(proptest::sample::select(&alphabet), 0..12)
            .prop_map(|chars| chars.into_iter().collect())
    }

    /// Any `f64` but NaN, which `==` cannot compare (`special_floats_roundtrip`
    /// covers NaN payloads).
    fn any_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u64..u64::MAX).prop_map(|bits| {
                let x = f64::from_bits(bits);
                if x.is_nan() {
                    1.5
                } else {
                    x
                }
            }),
            proptest::sample::select(&[f64::INFINITY, -0.0, f64::from_bits(1)]),
        ]
    }

    /// A kernel with arbitrary fields.
    fn any_kernel() -> impl Strategy<Value = KernelStats> {
        (
            (any_name(), 0u64..u64::MAX, 0u64..u64::MAX, 0.0f64..1e9),
            prop::collection::vec(any_f64(), 17),
        )
            .prop_map(|((name, invocations, warps, time), x)| {
                let mut metrics = KernelMetrics {
                    warp_instructions: warps,
                    ..KernelMetrics::default()
                };
                for (slot, value) in [
                    &mut metrics.duration_s,
                    &mut metrics.dram_transactions,
                    &mut metrics.gips,
                    &mut metrics.instruction_intensity,
                    &mut metrics.warp_occupancy,
                    &mut metrics.sm_efficiency,
                    &mut metrics.l1_hit_rate,
                    &mut metrics.l2_hit_rate,
                    &mut metrics.dram_read_throughput_gbps,
                    &mut metrics.ldst_utilization,
                    &mut metrics.sp_utilization,
                    &mut metrics.fraction_branches,
                    &mut metrics.fraction_ldst,
                    &mut metrics.execution_stall,
                    &mut metrics.pipe_stall,
                    &mut metrics.sync_stall,
                    &mut metrics.memory_stall,
                ]
                .into_iter()
                .zip(&x)
                {
                    *slot = *value;
                }
                KernelStats {
                    name,
                    invocations,
                    total_time_s: time,
                    warp_instructions: warps,
                    dram_transactions: x[1],
                    metrics,
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `read(write(x)) == x`; the document spells every bit, so its
        /// bytes also tell `-0.0` from `0.0`, which `==` does not.
        #[test]
        fn read_inverts_write(kernels in prop::collection::vec(any_kernel(), 0..6)) {
            let profile = Profile::from_kernel_stats(kernels);
            let document = write_profile(&profile);
            let back = read_profile(&document).expect("own output reads");
            prop_assert_eq!(write_profile(&back), document);
            prop_assert_eq!(back, profile);
        }

        /// Arbitrary text, and a real document cut anywhere and continued
        /// with arbitrary text, read as `Ok` or `Err`.
        #[test]
        fn reading_arbitrary_text_never_panics(
            kernels in prop::collection::vec(any_kernel(), 0..3),
            cut in 0usize..4096,
            tail in any_name(),
        ) {
            let document = write_profile(&Profile::from_kernel_stats(kernels));
            let mut cut = cut.min(document.len());
            while !document.is_char_boundary(cut) {
                cut -= 1;
            }
            let _ = read_profile(&tail);
            let _ = read_profile(&format!("{}{tail}", &document[..cut]));
        }
    }
}
