//! CSV for profiles — the counterpart of the paper artifact's `data/`
//! files that its Python/R plotting scripts consume — and the one RFC-4180
//! field codec every CSV body of the fleet is written and read with:
//! [`push_field`] quotes a field, [`read_table`] reads the records back,
//! quoted commas, doubled quotes and line breaks included.

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

/// The rows of a table body: every record after the first line equal to
/// `header`, each as wide as `header`. The lines before it are the body's
/// preamble (`#` lines that may hold names raw) and are not read. Fields
/// read back as [`push_field`] wrote them: a quoted field may hold commas,
/// doubled quotes and line breaks; a quote anywhere else is an error.
///
/// # Errors
///
/// No header line, or the first malformed or mis-sized row, by number.
pub fn read_table(body: &str, header: &str) -> Result<Vec<Vec<String>>, String> {
    let rest = std::iter::once(0)
        .chain(body.match_indices('\n').map(|(at, _)| at + 1))
        .find_map(|at| {
            let after = body.get(at..)?.strip_prefix(header)?;
            after
                .strip_prefix('\n')
                .or(after.is_empty().then_some(after))
        })
        .ok_or_else(|| format!("no {header:?} header line"))?;
    let width = header.split(',').count();
    let mut rows = Vec::new();
    let mut chars = rest.chars().peekable();
    while chars.peek().is_some() {
        let bad = |what: &str| format!("row {}: {what}", rows.len() + 1);
        let mut row = Vec::new();
        loop {
            let mut field = String::new();
            if chars.next_if_eq(&'"').is_some() {
                loop {
                    match chars.next() {
                        Some('"') if chars.next_if_eq(&'"').is_none() => break,
                        Some(c) => field.push(c),
                        None => return Err(bad("a quoted field never closes")),
                    }
                }
            } else {
                while let Some(c) = chars.next_if(|&c| c != ',' && c != '\n') {
                    if c == '"' {
                        return Err(bad("a quote inside an unquoted field"));
                    }
                    field.push(c);
                }
            }
            row.push(field);
            match chars.next() {
                Some(',') => {}
                Some('\n') | None => break,
                Some(_) => return Err(bad("text after a closing quote")),
            }
        }
        if row.len() != width {
            return Err(bad(&format!("{} fields, want {width}", row.len())));
        }
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_gpu::prelude::*;
    use proptest::prelude::*;

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

    /// The kernel table of `p`, read back: every row at the header's width.
    fn rows(p: &Profile) -> Vec<Vec<String>> {
        read_table(&to_csv("T", p), kernel_header()).expect("kernel table reads back")
    }

    #[test]
    fn header_and_rows_have_matching_arity() {
        let p = profile();
        assert_eq!(rows(&p).len(), p.kernel_count());
        let mut out = String::new();
        push_kernel_rows(&mut out, "T", &p);
        let header = format!("{}\n", kernel_header());
        assert_eq!(format!("{header}{out}"), to_csv("T", &p));
    }

    #[test]
    fn commas_in_kernel_names_are_quoted() {
        let p = profile();
        assert!(to_csv("T", &p).contains("\"with,comma\""));
        let mut names: Vec<String> = rows(&p).into_iter().map(|r| r[1].clone()).collect();
        names.sort_unstable();
        assert_eq!(names, ["plain", "with,comma"]);
    }

    #[test]
    fn time_shares_sum_to_one() {
        let p = profile();
        let total: f64 = rows(&p)
            .iter()
            .map(|row| row[4].parse::<f64>().unwrap())
            .sum();
        assert!((total - 1.0).abs() < 1e-3, "shares sum to {total}");
    }

    #[test]
    fn read_table_skips_the_preamble_and_checks_widths() {
        let body = "# name a,\"b\n# more\nx,y\n1,\"p,\"\"q\"\"\nr\"\n,\n";
        assert_eq!(
            read_table(body, "x,y"),
            Ok(vec![
                vec!["1".to_owned(), "p,\"q\"\nr".to_owned()],
                vec![String::new(), String::new()],
            ])
        );
        assert!(read_table("x,y\n1,2,3\n", "x,y")
            .unwrap_err()
            .contains("row 1"));
        assert!(read_table("x,y\n1,\"2\n", "x,y").is_err(), "unclosed quote");
        assert!(read_table("x,y\n1,2\"\n", "x,y").is_err(), "bare quote");
        assert!(
            read_table("x,y\n1,\"2\"3\n", "x,y").is_err(),
            "text after quote"
        );
        assert!(read_table("# x,y\n", "x,y").is_err(), "no header line");
        assert_eq!(read_table("x,y", "x,y"), Ok(Vec::new()));
    }

    /// The alphabet of the renderer tests' names: CSV's specials, the
    /// profile document's escapes, and a multi-byte character.
    fn any_text() -> impl Strategy<Value = String> {
        let alphabet = ['a', 'Z', '_', ' ', '\t', '\n', '\\', ',', '"', 'é'];
        prop::collection::vec(proptest::sample::select(&alphabet), 0..10)
            .prop_map(|chars| chars.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn records_read_back_exactly(
            records in prop::collection::vec(prop::collection::vec(any_text(), 3), 0..5),
        ) {
            let mut text = String::from("x,y,z\n");
            for record in &records {
                for (i, field) in record.iter().enumerate() {
                    if i > 0 {
                        text.push(',');
                    }
                    push_field(&mut text, field);
                }
                text.push('\n');
            }
            prop_assert_eq!(read_table(&text, "x,y,z"), Ok(records));
        }

        #[test]
        fn reading_arbitrary_text_never_panics(text in any_text(), header in any_text()) {
            let _ = read_table(&text, &header);
            let _ = read_table(&format!("{header}\n{text}"), &header);
        }
    }
}
