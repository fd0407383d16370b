//! What a run prints: every metric by name with its unit, the checks that
//! failed, and — as the last line of stdout — the one JSON object the driver
//! reads.

use std::collections::BTreeMap;

use crate::catalog::{Metric, END_TO_END, PER_LAYER};

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Record a metric of the catalog. A name outside the catalog, or a
    /// value that is not a finite number, is a bug in the benchmark and
    /// fails the run rather than reaching the driver.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name);
        if !known {
            self.fail(format!("metric {name:?} is not in the catalog"));
        } else if !value.is_finite() {
            self.fail(format!("metric {name} is not a finite number: {value}"));
        } else {
            self.metrics.insert(name, value);
        }
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// A line for the human reader (counts, sums, identities).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// A self-check. The run goes on, but ends `correct: false`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Record a failed check (once, however many passes repeat it).
    pub fn fail(&mut self, what: String) {
        if !self.failures.contains(&what) {
            self.failures.push(what);
        }
    }

    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Print the report; the last line is the driver's JSON object, holding
    /// exactly the end-to-end metrics (`trace` off) or exactly the per-layer
    /// metrics (`trace` on). A per-layer metric whose layer does no work on
    /// this workload reads 0.
    pub fn print(mut self, trace: bool) {
        let wanted: &[Metric] = if trace { PER_LAYER } else { END_TO_END };
        if !trace {
            for m in wanted {
                if !self.metrics.contains_key(m.name) {
                    self.fail(format!("end-to-end metric {} was not measured", m.name));
                }
            }
        }
        for line in &self.notes {
            println!("{line}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.metrics.get(m.name) {
                if m.moves.is_empty() {
                    println!("{} {v} {}", m.name, m.unit);
                } else {
                    println!("{} {v} {}  -> {}", m.name, m.unit, m.moves);
                }
            }
        }
        println!("attempted {}", self.attempted);
        println!("failed {}", self.failed);
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        let body: Vec<String> = wanted
            .iter()
            .map(|m| {
                let v = self.metrics.get(m.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}
