//! Exact serialization of [`Profile`]s for the shared profile store.
//!
//! The daemon and the fig/table binaries in `cactus-bench` all consume the
//! same simulated profiles; the store lets one run simulate a triple and
//! every later reader load the result instead of re-simulating. The format is a
//! line-oriented text format with **bit-exact** float round-tripping: every
//! `f64` is written as the 16-hex-digit encoding of its IEEE-754 bits, so a
//! loaded profile is the profile that was saved, bit for bit — NaN payloads
//! and `-0.0` included — and downstream figures are byte-identical whether
//! they came from a live simulation or from the store.
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

/// Bytes of one kernel line around its name: the tag, 19 hex words, three
/// integers at their widest, the tabs and the newline.
const KERNEL_LINE_BYTES: usize = 2 + 19 * 17 + 3 * 21 + 1;

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
/// One forward pass over the bytes: each field is found where the previous
/// one ended, each hex word is decoded eight bytes at a time and each
/// integer by a checked decimal loop. It accepts what `str::lines`, a split
/// at `'\t'`, `str::parse` and `u64::from_str_radix` accept, and rejects
/// the rest with the error they would lead to: a `\r` before a `\n`,
/// trailing blank lines, upper-case hex, a leading `+` and zero-padded
/// integers all read. [`write_profile`] writes none of those.
///
/// # Errors
///
/// Returns a [`StoreError`] describing the first structural problem found.
pub fn read_profile(text: &str) -> Result<Profile, StoreError> {
    let mut r = Reader {
        text,
        at: 0,
        line: 0,
        line_start: 0,
        left: 0,
    };

    r.start_line();
    if !(text.starts_with(FORMAT_HEADER) && r.end_line(FORMAT_HEADER.len())) {
        return Err(StoreError::BadHeader(r.rest_of_line(0).to_owned()));
    }

    if !r.start_line() {
        return Err(StoreError::Truncated);
    }
    let digits = r.at + "kernels ".len();
    let count = match decimal(text.as_bytes(), digits) {
        (Some(n), end) if text.get(r.at..digits) == Some("kernels ") && r.end_line(end) => {
            usize::try_from(n).ok()
        }
        _ => None,
    };
    let Some(count) = count else {
        return Err(r.malformed(format!(
            "expected `kernels <count>`, got {:?}",
            r.rest_of_line(r.line_start)
        )));
    };

    // `count` is input: a kernel line is never shorter than its 23 tabs
    // and a newline, so the text bounds what is worth reserving.
    let mut kernels = Vec::with_capacity(count.min(text.len() / 24));
    for _ in 0..count {
        if !r.start_line() {
            return Err(StoreError::Truncated);
        }
        kernels.push(r.kernel()?);
    }
    while r.start_line() {
        match text.as_bytes().get(r.at..) {
            Some([b'\n', ..]) => r.at += 1,
            Some([b'\r', b'\n', ..]) => r.at += 2,
            _ => {
                return Err(r.malformed(format!(
                    "content after the last of {count} declared kernel lines"
                )))
            }
        }
    }
    Ok(Profile::from_kernel_stats(kernels))
}

/// Fields of a kernel line: the tag, the name, three integers and 19
/// hex words.
const KERNEL_FIELDS: usize = 6 + 18;

/// The position of [`read_profile`]'s pass over one document. Lines are
/// what `str::lines` yields: up to a `\n`, less one `\r` before it.
struct Reader<'a> {
    text: &'a str,
    /// The next byte to read.
    at: usize,
    /// 1-based number of the line being read.
    line: usize,
    /// Where that line starts.
    line_start: usize,
    /// Fields of the current kernel line still to read.
    left: usize,
}

/// What follows a field's last byte.
enum After {
    /// A tab: another field follows, from the next byte.
    Tab,
    /// The end of the line; the next one starts at this offset.
    LineEnd(usize),
    /// Anything else: the field is longer than its value.
    More,
}

impl<'a> Reader<'a> {
    /// Begin the next line at `at`; `false` when the text has ended.
    fn start_line(&mut self) -> bool {
        self.line += 1;
        self.line_start = self.at;
        self.at < self.text.len()
    }

    /// Whether the line ends at `end`; if it does, move to the next one.
    fn end_line(&mut self, end: usize) -> bool {
        match self.after(end) {
            After::LineEnd(next) => {
                self.at = next;
                true
            }
            _ => false,
        }
    }

    fn after(&self, end: usize) -> After {
        match self.text.as_bytes().get(end..) {
            Some([]) => After::LineEnd(end),
            Some([b'\t', ..]) => After::Tab,
            Some([b'\n', ..]) => After::LineEnd(end + 1),
            Some([b'\r', b'\n', ..]) => After::LineEnd(end + 2),
            _ => After::More,
        }
    }

    /// The rest of the line from `from`, as `str::lines` would yield it.
    fn rest_of_line(&self, from: usize) -> &'a str {
        let rest = self.text.get(from..).unwrap_or_default();
        rest.split_once('\n')
            .map_or(rest, |(line, _)| line.strip_suffix('\r').unwrap_or(line))
    }

    /// One kernel line, from its tag through its line end.
    fn kernel(&mut self) -> Result<KernelStats, StoreError> {
        let name = self.name()?;
        self.left = KERNEL_FIELDS - 2;
        let invocations = self.int("invocation count")?;
        let total_time_s = self.word("total time")?;
        let warp_instructions = self.int("warp instructions")?;
        let dram_transactions = self.word("dram transactions")?;
        // Struct fields evaluate in the order written: declaration order.
        let metrics = KernelMetrics {
            duration_s: self.word("duration_s")?,
            warp_instructions: self.int("metric warp_instructions")?,
            dram_transactions: self.word("metric dram_transactions")?,
            gips: self.word("gips")?,
            instruction_intensity: self.word("instruction_intensity")?,
            warp_occupancy: self.word("warp_occupancy")?,
            sm_efficiency: self.word("sm_efficiency")?,
            l1_hit_rate: self.word("l1_hit_rate")?,
            l2_hit_rate: self.word("l2_hit_rate")?,
            dram_read_throughput_gbps: self.word("dram_read_throughput_gbps")?,
            ldst_utilization: self.word("ldst_utilization")?,
            sp_utilization: self.word("sp_utilization")?,
            fraction_branches: self.word("fraction_branches")?,
            fraction_ldst: self.word("fraction_ldst")?,
            execution_stall: self.word("execution_stall")?,
            pipe_stall: self.word("pipe_stall")?,
            sync_stall: self.word("sync_stall")?,
            memory_stall: self.word("memory_stall")?,
        };
        Ok(KernelStats {
            name,
            invocations,
            total_time_s,
            warp_instructions,
            dram_transactions,
            metrics,
        })
    }

    /// The `k` tag and the name after it, which a tab must end.
    fn name(&mut self) -> Result<String, StoreError> {
        let bytes = self.text.as_bytes();
        let start = self.at + 2;
        if bytes.get(self.at..start) != Some(b"k\t") {
            return Err(self.arity());
        }
        let rest = bytes.get(start..).unwrap_or_default();
        let end = start
            + rest
                .iter()
                .position(|&b| b == b'\t' || b == b'\n')
                .unwrap_or(rest.len());
        match (bytes.get(end), self.text.get(start..end)) {
            (Some(b'\t'), Some(escaped)) => {
                self.at = end + 1;
                Ok(unescape_name(escaped))
            }
            _ => Err(self.arity()),
        }
    }

    fn int(&mut self, what: &str) -> Result<u64, StoreError> {
        let (value, end) = decimal(self.text.as_bytes(), self.at);
        self.close(value, end, what, "")
    }

    fn word(&mut self, what: &str) -> Result<f64, StoreError> {
        let value = self
            .text
            .as_bytes()
            .get(self.at..)
            .and_then(<[u8]>::first_chunk)
            .and_then(hex_word)
            .map(f64::from_bits);
        self.close(value, self.at + 16, what, " bits")
    }

    /// End the field whose value is `value` and whose bytes end at `end`:
    /// a tab must follow it, or the line end after the last field.
    fn close<T>(
        &mut self,
        value: Option<T>,
        end: usize,
        what: &str,
        bits: &str,
    ) -> Result<T, StoreError> {
        self.left -= 1;
        match (value, self.after(end)) {
            (Some(v), After::Tab) if self.left > 0 => {
                self.at = end + 1;
                Ok(v)
            }
            (Some(v), After::LineEnd(next)) if self.left == 0 => {
                self.at = next;
                Ok(v)
            }
            (Some(_), After::Tab | After::LineEnd(_)) => Err(self.arity()),
            _ => {
                let line = self.rest_of_line(self.at);
                let field = line.split_once('\t').map_or(line, |(field, _)| field);
                Err(self.malformed(format!("bad {what}{bits}: {field:?}")))
            }
        }
    }

    #[cold]
    fn arity(&self) -> StoreError {
        let line = self.rest_of_line(self.line_start);
        let tabs = line.bytes().filter(|&b| b == b'\t').count();
        self.malformed(format!(
            "expected {KERNEL_FIELDS} tab-separated kernel fields starting with `k`, got {}",
            tabs + 1
        ))
    }

    #[cold]
    fn malformed(&self, reason: String) -> StoreError {
        StoreError::Malformed {
            line: self.line,
            reason,
        }
    }
}

/// The decimal integer at `start`, as `u64::from_str` reads it (an optional
/// `+`, then digits, checked for overflow), and where its digits end.
fn decimal(bytes: &[u8], start: usize) -> (Option<u64>, usize) {
    let digits = start + usize::from(bytes.get(start) == Some(&b'+'));
    let mut at = digits;
    let mut value = Some(0u64);
    while let Some(digit) = bytes
        .get(at)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|&d| d < 10)
    {
        value = value
            .and_then(|v| v.checked_mul(10))
            .and_then(|v| v.checked_add(u64::from(digit)));
        at += 1;
    }
    (value.filter(|_| at > digits), at)
}

/// The value of 16 hex digits, as `u64::from_str_radix(_, 16)` reads them:
/// either case, and a `+` in place of the first digit.
fn hex_word(digits: &[u8; 16]) -> Option<u64> {
    let high = u64::from_be_bytes(*digits.first_chunk()?);
    let low = u64::from_be_bytes(*digits.last_chunk()?);
    // A leading `+` reads as a leading zero.
    let high = if high >> 56 == u64::from(b'+') {
        high ^ (u64::from(b'+' ^ b'0') << 56)
    } else {
        high
    };
    let (high, high_ok) = hex_half(high);
    let (low, low_ok) = hex_half(low);
    (high_ok & low_ok).then_some((high << 32) | low)
}

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGH: u64 = 0x8080_8080_8080_8080;

/// Eight hex digits loaded big-endian (the first digit in the high byte):
/// their 32-bit value, and whether all eight are hex digits. Every byte is
/// classified and converted at once, then the nibbles are packed.
fn hex_half(x: u64) -> (u64, bool) {
    let digit = bytes_in(x, b'0', b'9');
    // `| 0x20` folds `A`–`F` onto `a`–`f` and moves no other byte there.
    let letter = bytes_in(x | (ONES * 0x20), b'a', b'f');
    // A byte of 0x80 or more carries into the next one; its own high bit
    // marks it invalid whatever the carry did.
    let valid = (digit | letter) & !x == HIGH;
    // `0`–`9` keep their low nibble; letters have 1–6 there and bit 6 set.
    let nibbles = (x & (ONES * 0x0F)) + ((x >> 6) & ONES) * 9;
    let pairs = (nibbles | (nibbles >> 4)) & 0x00FF_00FF_00FF_00FF;
    let quads = (pairs | (pairs >> 8)) & 0x0000_FFFF_0000_FFFF;
    ((quads | (quads >> 16)) & 0xFFFF_FFFF, valid)
}

/// The high bit of each byte of `x` below 0x80 that lies in `lo..=hi`.
/// Adding `0x80 - lo` sets a byte's high bit when it is at least `lo`,
/// adding `0x7F - hi` when it is above `hi`; only a byte of 0x80 or more
/// carries into the next one.
fn bytes_in(x: u64, lo: u8, hi: u8) -> u64 {
    let at_least = x.wrapping_add(ONES * u64::from(0x80 - lo));
    let above = x.wrapping_add(ONES * u64::from(0x7F - hi));
    at_least & !above & HIGH
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
mod reference {
    //! The parser [`read_profile`](super::read_profile) replaced, kept
    //! verbatim as its oracle: `str::lines`, `split('\t')`, `str::parse` and
    //! `u64::from_str_radix`. The one-pass reader must return what this
    //! returns on every input, errors included.

    use super::*;

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

    fn parse_f64_bits(s: &str) -> Option<f64> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(f64::from_bits)
    }
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
            let digits = field.as_bytes()[1..].first_chunk().expect("16 digits");
            assert_eq!(hex_word(digits), Some(x.to_bits()));
        }
    }

    /// Every byte value at every position of a hex word, over words of
    /// either case and one with a leading `+`: the eight-byte decoder
    /// reads what `u64::from_str_radix` reads.
    #[test]
    fn hex_word_equals_from_str_radix_at_every_position_and_byte() {
        for base in [
            b"0123456789abcdef",
            b"FEDCBA9876543210",
            b"+00000000000a0F9",
        ] {
            for at in 0..16 {
                for byte in 0..=u8::MAX {
                    let mut word = *base;
                    word[at] = byte;
                    let expected = std::str::from_utf8(&word)
                        .ok()
                        .and_then(|s| u64::from_str_radix(s, 16).ok());
                    assert_eq!(hex_word(&word), expected, "{word:?}");
                }
            }
        }
    }

    #[test]
    fn decimal_equals_u64_from_str() {
        for text in [
            "",
            "+",
            "-",
            "0",
            "+0",
            "007",
            "+-1",
            "-1",
            "1+",
            "1 ",
            "٣",
            "18446744073709551615",
            "018446744073709551615",
            "+18446744073709551615",
            "18446744073709551616",
            "18446744073709551619",
            "184467440737095516150",
            "99999999999999999999",
        ] {
            let whole = match decimal(text.as_bytes(), 0) {
                (Some(n), end) if end == text.len() => Some(n),
                _ => None,
            };
            assert_eq!(whole, text.parse::<u64>().ok(), "{text:?}");
        }
    }

    /// A stored document with NaN totals among more kernels than the sort
    /// inserts, in no order, reads NaN first: the comparator is a total
    /// order.
    #[test]
    fn nan_total_times_read_in_dominance_order() {
        let nan = format!("{:016x}", f64::NAN.to_bits());
        let mut document = format!("{FORMAT_HEADER}\nkernels 40\n");
        for i in 0..40 {
            // Totals 0..40 in a scrambled order, every third one NaN.
            let kernel = KernelStats {
                name: format!("k{i:02}"),
                invocations: 1,
                total_time_s: f64::from(i * 7 % 40),
                warp_instructions: 0,
                dram_transactions: 0.0,
                metrics: KernelMetrics::default(),
            };
            let one = write_profile(&Profile::from_kernel_stats(vec![kernel]));
            let mut fields: Vec<&str> = one
                .lines()
                .nth(2)
                .expect("kernel line")
                .split('\t')
                .collect();
            if i % 3 == 0 {
                fields[3] = &nan;
            }
            document.push_str(&(fields.join("\t") + "\n"));
        }
        let profile = read_profile(&document).expect("reads");
        let nans = profile
            .kernels()
            .iter()
            .take_while(|k| k.total_time_s.is_nan())
            .count();
        assert_eq!(nans, 14);
        let rest = &profile.kernels()[nans..];
        assert!(rest
            .windows(2)
            .all(|w| w[0].total_time_s > w[1].total_time_s));
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

    /// A total time: mostly ordinary, sometimes NaN or `-0.0`, the two
    /// values a partial order cannot place.
    fn any_total() -> impl Strategy<Value = f64> {
        (0u64..10, 0.0f64..1e9).prop_map(|(pick, time)| match pick {
            0 => f64::NAN,
            1 => -0.0,
            _ => time,
        })
    }

    /// A kernel with arbitrary fields.
    fn any_kernel() -> impl Strategy<Value = KernelStats> {
        (
            (any_name(), 0u64..u64::MAX, 0u64..u64::MAX, any_total()),
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

    /// The bytes a damaged document is made of: hex digits of both cases,
    /// what an integer or a name may start with, every separator, an escape
    /// and a multi-byte character.
    const DAMAGE: [char; 32] = [
        '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 'a', 'b', 'c', 'd', 'e', 'f', 'A', 'B',
        'C', 'D', 'E', 'F', 'g', '+', '-', '\t', '\r', '\n', '\\', ' ', 'é', 'k',
    ];

    fn any_text() -> impl Strategy<Value = String> {
        prop::collection::vec(proptest::sample::select(&DAMAGE), 0..48)
            .prop_map(|chars| chars.into_iter().collect())
    }

    fn any_document() -> impl Strategy<Value = String> {
        prop::collection::vec(any_kernel(), 0..32)
            .prop_map(|kernels| write_profile(&Profile::from_kernel_stats(kernels)))
    }

    /// The char boundary at or before `at % (len + 1)`.
    fn boundary(text: &str, at: usize) -> usize {
        let mut at = at % (text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        at
    }

    /// The one-pass reader and the reference agree on `text`: the same
    /// error, or profiles with the same document and the same total bits
    /// (NaN payloads and `-0.0` included).
    fn agrees(text: &str) {
        let decode = |read: fn(&str) -> Result<Profile, StoreError>| {
            read(text).map(|p| (write_profile(&p), p.total_time_s().to_bits()))
        };
        assert_eq!(
            decode(read_profile),
            decode(reference::read_profile),
            "{text:?}"
        );
    }

    /// Each field of the first kernel line emptied, dropped, doubled or
    /// followed by a stray tab: where one-char edits rarely land, on the
    /// arity and field-end errors.
    #[test]
    fn reader_equals_reference_on_every_field_edit() {
        let document = write_profile(&sample_profile());
        let lines: Vec<&str> = document.split_inclusive('\n').collect();
        let (head, kernel, tail) = (lines[..2].concat(), lines[2], lines[3..].concat());
        let fields: Vec<&str> = kernel.trim_end_matches('\n').split('\t').collect();
        for at in 0..fields.len() {
            for edit in 0..4 {
                let mut edited: Vec<String> = fields.iter().map(|f| (*f).to_owned()).collect();
                match edit {
                    0 => edited[at].clear(),
                    1 => drop(edited.remove(at)),
                    2 => edited.insert(at, fields[at].to_owned()),
                    _ => edited[at].push('\t'),
                }
                agrees(&format!("{head}{}\n{tail}", edited.join("\t")));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn reader_equals_reference_on_canonical_documents(document in any_document()) {
            agrees(&document);
        }

        /// One char substituted, inserted or deleted anywhere, or at the
        /// start of a field, where a sign or a padding zero is read.
        #[test]
        fn reader_equals_reference_on_mutated_documents(
            document in any_document(),
            edit in 0usize..3,
            field_start in 0usize..2,
            at in 0usize..1 << 20,
            with in proptest::sample::select(&DAMAGE),
        ) {
            let mut text = document;
            let starts: Vec<usize> = text.match_indices(['\t', '\n']).map(|(i, _)| i + 1).collect();
            let at = match starts.len() {
                n if field_start == 1 && n > 0 => starts[at % n],
                _ => boundary(&text, at),
            };
            match edit {
                0 => text.insert(at, with),
                _ if at == text.len() => text.push(with),
                1 => {
                    text.remove(at);
                    text.insert(at, with);
                }
                _ => {
                    text.remove(at);
                }
            }
            agrees(&text);
        }

        /// Every line ending a CRLF, and blank lines of either kind after.
        #[test]
        fn reader_equals_reference_on_crlf_documents(
            document in any_document(),
            blank in prop::collection::vec(proptest::sample::select(&["\n", "\r\n"]), 0..3),
        ) {
            agrees(&(document.replace('\n', "\r\n") + &blank.concat()));
        }

        #[test]
        fn reader_equals_reference_on_cut_documents(
            document in any_document(),
            cut in 0usize..1 << 20,
            tail in any_text(),
        ) {
            let cut = boundary(&document, cut);
            agrees(&format!("{}{tail}", &document[..cut]));
            agrees(&tail);
        }

        /// `write(read(write(x))) == write(x)`, and the totals agree bit
        /// for bit: the document spells every bit, so its bytes also tell
        /// `-0.0` from `0.0` and compare NaN totals, which `==` does not.
        /// Past 20 kernels the sort merges runs instead of inserting, which
        /// is where an order that is not total makes it panic.
        #[test]
        fn read_inverts_write(kernels in prop::collection::vec(any_kernel(), 0..48)) {
            let profile = Profile::from_kernel_stats(kernels);
            let document = write_profile(&profile);
            let back = read_profile(&document).expect("own output reads");
            prop_assert_eq!(write_profile(&back), document);
            prop_assert_eq!(back.total_time_s().to_bits(), profile.total_time_s().to_bits());
        }

        /// Arbitrary text, and a real document cut anywhere and continued
        /// with arbitrary text, read as `Ok` or `Err`.
        #[test]
        fn reading_arbitrary_text_never_panics(
            kernels in prop::collection::vec(any_kernel(), 0..48),
            cut in 0usize..32768,
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
