//! Spans recorded from outside the program, around the benchmark's own
//! calls into each layer. Every span belongs to a named series (`via`,
//! `direct`, `serve.http.parse`, …) and an op; a series keeps, per op, the
//! fastest span it saw — floored like everything else — and where it was
//! (`pass`, `start_ns`). Nothing is written until the run ends.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::PathBuf;

use crate::estimator::{median_i64, Floors, FAILED};
use crate::host::benchmark_dir;

#[derive(Debug)]
struct Series {
    name: &'static str,
    parent: &'static str,
    floors: Floors,
}

/// Handle of one series in a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

#[derive(Debug)]
pub struct Trace {
    ops: usize,
    series: Vec<Series>,
}

impl Trace {
    #[must_use]
    pub fn new(ops: usize) -> Self {
        Self {
            ops,
            series: Vec::new(),
        }
    }

    /// Declare a series; `parent` names the span that causes it (`pass` for
    /// whole ops, the op's series for probes on the op's bytes).
    pub fn series(&mut self, name: &'static str, parent: &'static str) -> SeriesId {
        self.series.push(Series {
            name,
            parent,
            floors: Floors::new(self.ops),
        });
        SeriesId(self.series.len() - 1)
    }

    pub fn record(&mut self, id: SeriesId, op: usize, pass: u32, start_ns: u64, dur_ns: u64) {
        self.series[id.0].floors.record(op, pass, start_ns, dur_ns);
    }

    /// Time `f` as one span of series `id`.
    pub fn span<T>(&mut self, id: SeriesId, op: usize, pass: u32, f: impl FnOnce() -> T) -> T {
        let (out, start, dur) = crate::host::timed(f);
        self.record(id, op, pass, start, dur);
        out
    }

    #[must_use]
    pub fn floors(&self, id: SeriesId) -> &Floors {
        &self.series[id.0].floors
    }

    /// Per-op floor of series `id` in ns, `None` where nothing was recorded.
    #[must_use]
    pub fn floor(&self, id: SeriesId, op: usize) -> Option<u64> {
        Some(self.series[id.0].floors.ns()[op]).filter(|&v| v != FAILED)
    }

    /// Median over `ops` of the per-op difference `floor(a) − floor(b)` in
    /// µs; 0 when no op has both.
    #[must_use]
    pub fn median_diff_us(&self, ops: Range<usize>, a: SeriesId, b: SeriesId) -> f64 {
        let mut d: Vec<i64> = ops
            .filter_map(|op| Some(self.floor(a, op)? as i64 - self.floor(b, op)? as i64))
            .collect();
        if d.is_empty() {
            0.0
        } else {
            median_i64(&mut d) as f64 / 1e3
        }
    }

    /// Write the floored spans as tab-separated rows under
    /// `benchmark/trace/` and return the file's path.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn write(&self, run: &str, labels: &[String]) -> io::Result<PathBuf> {
        let dir = benchmark_dir().join("trace");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{run}.spans.tsv"));
        let mut out = String::from("run\tpass\top\tlabel\tname\tparent\tstart_ns\tend_ns\n");
        for s in &self.series {
            for (op, &ns) in s.floors.ns().iter().enumerate() {
                if ns == FAILED {
                    continue;
                }
                let (pass, start) = s.floors.at(op);
                let _ = writeln!(
                    out,
                    "{run}\t{pass}\t{op}\t{}\t{}\t{}\t{start}\t{}",
                    labels[op],
                    s.name,
                    s.parent,
                    start + ns
                );
            }
        }
        fs::write(&path, out)?;
        Ok(path)
    }
}
