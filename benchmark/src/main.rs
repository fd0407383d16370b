//! Noise-floor benchmark of the cactus-rs fleet.
//!
//! ```text
//! cactus-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--base-port <p>] [--smoke]
//! ```
//!
//! One run measures one workload and prints every metric by name with its
//! unit; the last line of stdout is the JSON object the driver reads. See
//! `benchmark/README.md` for what is measured, how, and why.

mod catalog;
mod cold;
mod estimator;
mod fleet;
mod host;
mod local;
mod ops;
mod probes;
mod read;
mod report;
mod trace;
mod yardstick;

use std::collections::BTreeMap;
use std::process::ExitCode;

use estimator::{fixed_repeats, percentile, samples_beyond, Samples, MIN_PASSES};
use report::Report;

/// First of the five fixed ports. Ring placement hashes the backends'
/// `addr:port` labels, so the ports are part of the workload. Below Linux's
/// ephemeral range (32768–60999), or one of the benchmark's own outgoing
/// connections can be handed a fleet port as its source port.
const DEFAULT_BASE_PORT: u16 = 27610;
/// Fewest rounds of a traced run: per-layer metrics carry no bound, and a
/// `cold-sweep` round is three fresh-fleet passes long.
const MIN_TRACED_ROUNDS: usize = 3;

/// What one invocation was asked to do.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub base_port: u16,
    /// Two passes, all checks on: exercises every code path in seconds.
    pub smoke: bool,
    pub work: host::WorkDir,
}

/// Passes of an untraced run: fixed from the run length before the first.
#[must_use]
pub fn passes_for(run: &Run, nominal_pass_s: f64) -> usize {
    if run.smoke {
        2
    } else {
        fixed_repeats(run.seconds, nominal_pass_s, MIN_PASSES)
    }
}

/// Rounds of a traced run, each `nominal_round_s` long.
#[must_use]
pub fn rounds_for(run: &Run, nominal_round_s: f64) -> usize {
    if run.smoke {
        2
    } else {
        fixed_repeats(run.seconds, nominal_round_s, MIN_TRACED_ROUNDS)
    }
}

/// The end-to-end metrics every workload shares, over the per-op floors;
/// `scale` is what the beats interleaved with `samples` say the times are to
/// be multiplied by on the loopback workloads (`yardstick.rs`), and 1 on the
/// simulating ones.
pub fn e2e_metrics(report: &mut Report, samples: &Samples, scale: f64) {
    let floors = &samples.floors;
    report.check(floors.missing() == 0, || {
        format!("{} ops never succeeded", floors.missing())
    });
    let sorted = floors.sorted();
    if sorted.is_empty() {
        return;
    }
    let n = sorted.len();
    let sum_s = floors.sum_ns() as f64 / 1e9;
    report.metric("ops_per_s", n as f64 / (sum_s * scale));
    for (name, q) in [("latency_p50_us", 0.5), ("latency_p90_us", 0.9)] {
        report.metric(name, percentile(&sorted, q) as f64 / 1e3 * scale);
    }
    match host::peak_rss_mb() {
        Ok(mb) => report.metric("peak_rss_mb", mb),
        Err(e) => report.fail(format!("peak RSS: {e}")),
    }
    report.note(format!(
        "passes {} ops_per_pass {n} samples_beyond p90 {} p99 {}",
        samples.pass_count(),
        samples_beyond(n, 0.9),
        samples_beyond(n, 0.99)
    ));
    report.note(format!(
        "as measured (speed scale {scale:.4}): ops_per_s {:.1} latency_p50_us {:.3} latency_p90_us {:.3}",
        n as f64 / sum_s,
        percentile(&sorted, 0.5) as f64 / 1e3,
        percentile(&sorted, 0.9) as f64 / 1e3
    ));
}

/// The tail of the floors — ungated: on the simulating workloads it is one
/// op, and its two A/A sets differed by a tenth — and what the same samples
/// say about the machine. Printed by every run.
pub fn noise_metrics(report: &mut Report, samples: &Samples) {
    let sorted = samples.floors.sorted();
    if !sorted.is_empty() {
        report.metric("latency_p99_us", percentile(&sorted, 0.99) as f64 / 1e3);
    }
    let noise = samples.noise();
    report.metric("harness.noise_ratio", noise.noise_ratio);
    report.metric("harness.floor_support", noise.floor_support);
    report.metric("typical.latency_p50_us", noise.typical_p50_us);
    report.metric("typical.latency_p90_us", noise.typical_p90_us);
    let sums: Vec<String> = samples
        .pass_sums_s()
        .iter()
        .map(|s| format!("{s:.3}"))
        .collect();
    report.note(format!(
        "pass sums (s) {} against a sum of floors of {:.3}",
        sums.join(" "),
        samples.floors.sum_ns() as f64 / 1e9
    ));
}

/// The program's own spans for the sampled requests, pulled from each tier's
/// `/v1/tracez` and floored per op like the outside spans they are held
/// against: a cross-check of the probes, not a source.
#[derive(Debug, Default)]
pub struct ProgramSpans {
    /// Span name → op → fastest span (µs, the tiers' resolution).
    floors: BTreeMap<String, BTreeMap<usize, u64>>,
    requests: u64,
    spans: u64,
}

impl ProgramSpans {
    pub fn add(&mut self, op: usize, spans: Vec<(String, u64)>) {
        self.requests += 1;
        self.spans += spans.len() as u64;
        for (name, dur_us) in spans {
            let floor = self
                .floors
                .entry(name)
                .or_default()
                .entry(op)
                .or_insert(dur_us);
            *floor = (*floor).min(dur_us);
        }
    }

    /// Median over the sampled ops of the op's fastest span.
    fn median_us(&self, name: &str) -> Option<f64> {
        let mut v: Vec<u64> = self.floors.get(name)?.values().copied().collect();
        Some(estimator::median_u64(&mut v) as f64)
    }

    pub fn report(&self, report: &mut Report) {
        report.metric(
            "obs.spans_per_request",
            fleet::ratio(self.spans as f64, self.requests as f64),
        );
        for (name, ops) in &self.floors {
            report.note(format!(
                "program span {name}: median floor {} us over {} sampled ops",
                self.median_us(name).unwrap_or(0.0),
                ops.len()
            ));
        }
    }

    /// Print the program's span beside the outside figure for the same work,
    /// flagging a disagreement beyond 2× (the program's spans have 1 µs
    /// resolution, so figures under 5 µs are not compared).
    pub fn compare(&self, report: &mut Report, name: &str, outside_us: f64) {
        let Some(inside) = self.median_us(name) else {
            report.note(format!("cross-check {name}: no program span sampled"));
            return;
        };
        let comparable = inside >= 5.0 && outside_us >= 5.0;
        let apart = comparable && (inside > 2.0 * outside_us || outside_us > 2.0 * inside);
        report.note(format!(
            "cross-check {name}: program {inside} us, outside {outside_us:.3} us{}",
            if apart {
                " -- DISAGREE by more than 2x"
            } else if comparable {
                ""
            } else {
                " (below the spans' resolution, not compared)"
            }
        ));
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    base_port: u16,
    smoke: bool,
    benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(catalog::RUN_SECONDS),
        trace: false,
        base_port: DEFAULT_BASE_PORT,
        smoke: false,
        benchmark_json: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--base-port" => {
                args.base_port = value()?.parse().map_err(|e| format!("--base-port: {e}"))?;
            }
            "--smoke" => args.smoke = true,
            "--benchmark-json" => args.benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    if args.base_port.checked_add(fleet::PORTS).is_none() || args.base_port < 1024 {
        return Err(format!(
            "--base-port {} leaves no room for the fleet",
            args.base_port
        ));
    }
    Ok(args)
}

fn run_workload(name: &str, run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    report.note(format!(
        "workload {name} seed {} seconds {} trace {} smoke {}",
        run.seed,
        run.seconds,
        u8::from(run.trace),
        run.smoke
    ));
    match name {
        "hot-read" => read::run(
            &read::ReadSpec {
                workload: &catalog::HOT_READ,
                triples: ops::hot_triples,
                ops: ops::hot_ops,
                expect_hits: true,
            },
            run,
            &mut report,
        )?,
        "store-read" => read::run(
            &read::ReadSpec {
                workload: &catalog::STORE_READ,
                triples: ops::store_triples,
                ops: ops::store_ops,
                expect_hits: false,
            },
            run,
            &mut report,
        )?,
        "cold-sweep" => cold::run(run, &mut report)?,
        "suite-local" => local::run(run, &mut report)?,
        other => {
            let known: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {other:?}; one of {}",
                known.join(", ")
            ));
        }
    }
    Ok(report)
}

/// Runs what was asked; `Ok(false)` when a smoke run failed a check.
fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if args.benchmark_json {
        print!("{}", catalog::benchmark_json());
        return Ok(true);
    }
    let names: Vec<String> = match (&args.workload, args.smoke) {
        (Some(w), _) => vec![w.clone()],
        (None, true) => catalog::WORKLOADS
            .iter()
            .map(|w| w.name.to_owned())
            .collect(),
        (None, false) => return Err("--workload is required".to_owned()),
    };
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let cpu = host::pin_to_highest_cpu().map_err(|e| format!("pinning: {e}"))?;
    host::preflight_ports(args.base_port, fleet::PORTS).map_err(|e| e.to_string())?;
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        base_port: args.base_port,
        smoke: args.smoke,
        work: host::WorkDir::create().map_err(|e| format!("work dir: {e}"))?,
    };
    println!(
        "pinned to cpu {cpu} of {cpus} available; ports {}..{}",
        args.base_port,
        args.base_port + fleet::PORTS - 1
    );
    let mut all_correct = true;
    for name in names {
        let report = run_workload(&name, &run)?;
        all_correct &= report.correct();
        report.print(run.trace);
    }
    // A measured run that failed a check still exits 0: the driver reads
    // `correct: false` from the result line. A smoke run is for CI.
    Ok(all_correct || !args.smoke)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cactus-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
