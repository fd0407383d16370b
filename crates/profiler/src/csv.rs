//! CSV emission for profiles — the counterpart of the paper artifact's
//! `data/` files that its Python/R plotting scripts consume.

use std::fmt::Write as _;
use std::sync::LazyLock;

use cactus_gpu::metrics::MetricId;

use crate::Profile;

static KERNEL_HEADER: LazyLock<String> = LazyLock::new(|| {
    let mut header = String::from(
        "workload,kernel,invocations,total_time_s,time_share,warp_instructions,dram_transactions",
    );
    for id in MetricId::ALL {
        header.push(',');
        header.push_str(&id.name().to_lowercase().replace([' ', '/'], "_"));
    }
    header
});

/// CSV header for [`push_kernel_rows`]: kernel identity, totals, and the
/// full metric vector in [`MetricId::ALL`] order. Built on first use.
#[must_use]
pub fn kernel_header() -> &'static str {
    &KERNEL_HEADER
}

/// Append one newline-terminated CSV row per kernel of `profile`, in
/// dominance order.
pub fn push_kernel_rows(out: &mut String, workload: &str, profile: &Profile) {
    let total = profile.total_time_s();
    for k in profile.kernels() {
        push_field(out, workload);
        out.push(',');
        push_field(out, &k.name);
        let _ = write!(
            out,
            ",{},{:e},{:.6},{},{:e}",
            k.invocations,
            k.total_time_s,
            k.time_share(total),
            k.warp_instructions,
            k.dram_transactions
        );
        for id in MetricId::ALL {
            let _ = write!(out, ",{:e}", k.metrics.get(id));
        }
        out.push('\n');
    }
}

/// A complete CSV document (header + rows) for one profiled workload.
#[must_use]
pub fn to_csv(workload: &str, profile: &Profile) -> String {
    // A row is its two names and 22 numeric fields, ~340 bytes of them.
    let names: usize = profile.kernels().iter().map(|k| k.name.len()).sum();
    let mut out = String::with_capacity(
        kernel_header().len() + 1 + names + profile.kernel_count() * (workload.len() + 360),
    );
    out.push_str(kernel_header());
    out.push('\n');
    push_kernel_rows(&mut out, workload, profile);
    out
}

/// Append `s` as one CSV field: quoted, with quotes doubled, when it holds a
/// comma, a quote or a newline; verbatim otherwise.
pub fn push_field(out: &mut String, s: &str) {
    if !s.contains([',', '"', '\n']) {
        out.push_str(s);
        return;
    }
    out.push('"');
    for piece in s.split_inclusive('"') {
        out.push_str(piece);
        if piece.ends_with('"') {
            out.push('"');
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_gpu::prelude::*;

    fn profile() -> Profile {
        let mut gpu = Gpu::new(Device::rtx3080());
        for name in ["plain", "with,comma"] {
            let k = KernelDesc::builder(name)
                .launch(LaunchConfig::linear(1 << 16, 256))
                .stream(AccessStream::read(1 << 16, 4, AccessPattern::Streaming))
                .build();
            gpu.launch(&k);
        }
        Profile::from_records(gpu.records())
    }

    fn rows(p: &Profile) -> Vec<String> {
        let mut out = String::new();
        push_kernel_rows(&mut out, "T", p);
        out.lines().map(str::to_owned).collect()
    }

    #[test]
    fn header_and_rows_have_matching_arity() {
        let p = profile();
        let header_cols = kernel_header().split(',').count();
        for row in rows(&p) {
            // Quoted commas are escaped, so a naive split works only on
            // rows without them; count via the csv-aware splitter below.
            let cols = split_csv(&row).len();
            assert_eq!(cols, header_cols, "{row}");
        }
    }

    #[test]
    fn commas_in_kernel_names_are_quoted() {
        let p = profile();
        let doc = to_csv("T", &p);
        assert!(doc.contains("\"with,comma\""));
        // Every line parses back to the header arity.
        let header_cols = kernel_header().split(',').count();
        for line in doc.lines().skip(1) {
            assert_eq!(split_csv(line).len(), header_cols);
        }
    }

    #[test]
    fn time_shares_sum_to_one() {
        let p = profile();
        let total: f64 = rows(&p)
            .iter()
            .map(|row| split_csv(row)[4].parse::<f64>().unwrap())
            .sum();
        assert!((total - 1.0).abs() < 1e-3, "shares sum to {total}");
    }

    /// Minimal RFC-4180 splitter for the tests.
    fn split_csv(line: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = String::new();
        let mut quoted = false;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    cur.push('"');
                    chars.next();
                }
                '"' => quoted = !quoted,
                ',' if !quoted => {
                    out.push(std::mem::take(&mut cur));
                }
                other => cur.push(other),
            }
        }
        out.push(cur);
        out
    }
}
