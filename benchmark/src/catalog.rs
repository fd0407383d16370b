//! The names this benchmark is made of: workloads, end-to-end metrics with
//! their bounds, per-layer metrics with the end-to-end metric each should
//! move. `BENCHMARK.json` at the repo root is [`benchmark_json`] verbatim (a
//! unit test holds the two together); its schema has no room for nominal
//! pass times or for what a per-layer metric should move, so those live here
//! and in `benchmark/README.md`.

/// Seconds of passes the driver asks every run for.
pub const RUN_SECONDS: u32 = 20;

pub struct Workload {
    pub name: &'static str,
    /// The share of the requested run length one pass is charged, which fixes
    /// the pass count: about what a pass takes on the reference container,
    /// except on `cold-sweep`, where booting, checking and stopping a fleet
    /// around the requests doubles it.
    pub nominal_pass_s: f64,
    /// Whether `BENCHMARK.json` lists it, so that the driver runs it and
    /// holds later changes to its bounds.
    pub gated: bool,
    pub why: &'static str,
}

pub const HOT_READ: Workload = Workload {
    name: "hot-read",
    nominal_pass_s: 0.36,
    gated: true,
    why: "2048 GETs/pass over 240 cached paths: only serve::{http,server,cache} and \
          gateway::{server,ring,proxy,connpool} work, so transport and daemon-skeleton changes show \
          here alone",
};
pub const STORE_READ: Workload = Workload {
    name: "store-read",
    nominal_pass_s: 0.36,
    gated: true,
    why: "1008 paths cycled past each backend's 256-entry LRU: same transport as hot-read plus \
          Store::get + read_profile + render on every request, so the difference isolates the \
          store path",
};
/// Not gated: with fleet and client on one vCPU a hedged copy of a heavy
/// request shares the CPU with its primary, and how the scheduler interleaves
/// the two decides whether the request takes 90 ms or 150. Between runs of one
/// binary the floors of those ops ranged 78–136 ms on a quiet machine, and
/// `ops_per_s` and `latency_p50_us` (two `fdatasync`s) spread 19–36 % across
/// a change of machine phase — beyond the widest bound the driver allows
/// (`benchmark/README.md`). It runs by hand, traced, and in the smoke run.
pub const COLD_SWEEP: Workload = Workload {
    name: "cold-sweep",
    nominal_pass_s: 1.0,
    gated: false,
    why: "fresh fleet per pass, POST gnn.wir, then 132 first-touch GETs: host derivation, gpu \
          model, pool, store append+fsync, replication, hedging and WIR submit do the work; \
          transport is <1 %",
};
pub const SUITE_LOCAL: Workload = Workload {
    name: "suite-local",
    nominal_pass_s: 0.72,
    gated: true,
    why: "no sockets: the same 126 triples as Workload::run on a fresh Gpu plus wir::run of the \
          shipped defs, so a fleet-side optimisation predicts no change here",
};
pub const WORKLOADS: [&Workload; 4] = [&HOT_READ, &STORE_READ, &COLD_SWEEP, &SUITE_LOCAL];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end: the share of the parent's median it may worsen by.
    pub bound: f64,
    /// Per-layer: the end-to-end metric@workload it should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        moves,
    }
}

/// Same names on every workload; all computed over per-op floors.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "op/s", "higher", 0.25),
    e2e("latency_p50_us", "us", "lower", 0.25),
    e2e("latency_p90_us", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

const P50_HOT: &str = "latency_p50_us@hot-read";
const TAIL: &str = "itself: the tail of the floors, ungated";
const P99_HOT: &str = "latency_p99_us@hot-read";
const P50_STORE: &str = "latency_p50_us@store-read";
const SETUP_READ: &str = "setup_s@hot-read,store-read";
const OPS_SIM: &str = "ops_per_s@suite-local,cold-sweep";
const OPS_COLD: &str = "ops_per_s,latency_p90_us@cold-sweep";
const HARNESS: &str = "none: describes the harness and the machine";

/// `_us` metrics are the median over the ops that reach the layer of the
/// per-op floor; `_ms` metrics are the sum of per-op floors over one pass
/// (boot metrics: the floor of the phase); ratios and counts come from
/// `/v1/metricsz` deltas and the client's own counters. A layer no op of the
/// workload reaches reads 0.
pub const PER_LAYER: &[Metric] = &[
    // Transport.
    layer("serve.http.parse_us", "us", "lower", P50_HOT),
    layer("serve.http.write_us", "us", "lower", P50_HOT),
    layer("gateway.ring.route_us", "us", "lower", P50_HOT),
    layer("serve.cache.get_us", "us", "lower", P50_HOT),
    layer("gateway.hop_us", "us", "lower", P50_HOT),
    layer("harness.client_us", "us", "lower", P50_HOT),
    layer("serve.server.unattributed_us", "us", "lower", P50_HOT),
    layer("latency_p99_us", "us", "lower", TAIL),
    layer("serve.server.reconnects_per_kop", "1/kop", "lower", P99_HOT),
    layer("serve.server.reconnect_us", "us", "lower", P99_HOT),
    layer("gateway.connpool.reuse_ratio", "ratio", "higher", P99_HOT),
    // Cache and store.
    layer("serve.cache.hit_ratio", "ratio", "higher", P50_STORE),
    layer("store.get_us", "us", "lower", P50_STORE),
    layer("profiler.decode_us", "us", "lower", P50_STORE),
    layer("profiler.render_us", "us", "lower", P50_STORE),
    layer("serve.store_path_us", "us", "lower", P50_STORE),
    layer("serve.store_path_unattributed_us", "us", "lower", P50_STORE),
    layer("store.open_ms", "ms", "lower", SETUP_READ),
    layer("serve.boot_ms", "ms", "lower", SETUP_READ),
    layer("gateway.boot_ms", "ms", "lower", SETUP_READ),
    // Simulation.
    layer("host.derive_ms", "ms", "lower", OPS_SIM),
    layer("gpu.model_eval_ms", "ms", "lower", OPS_SIM),
    layer("gpu.model_eval_nomemo_ms", "ms", "lower", OPS_SIM),
    layer("profiler.from_records_us", "us", "lower", OPS_SIM),
    layer("gpu.memo.hit_ratio", "ratio", "higher", OPS_SIM),
    layer("gpu.launches_per_pass", "count", "lower", OPS_SIM),
    // Cold path.
    layer("serve.cold_overhead_ms", "ms", "lower", OPS_COLD),
    layer("store.append_us", "us", "lower", OPS_COLD),
    layer("store.bytes_per_record", "B", "lower", OPS_COLD),
    layer("gateway.sync.replicate_ms", "ms", "lower", OPS_COLD),
    layer("serve.workload_post_ms", "ms", "lower", OPS_COLD),
    layer("wir.parse_us", "us", "lower", OPS_COLD),
    layer("wir.check_us", "us", "lower", OPS_COLD),
    layer("wir.exec_us", "us", "lower", OPS_COLD),
    layer("serve.sim.useful_ratio", "ratio", "higher", OPS_COLD),
    layer("gateway.proxy.hedges_per_kop", "1/kop", "lower", OPS_COLD),
    layer("gateway.proxy.hedge_win_ratio", "ratio", "higher", OPS_COLD),
    layer("gateway.proxy.retries_per_kop", "1/kop", "lower", OPS_COLD),
    layer(
        "gateway.sync.replications_per_op",
        "1/op",
        "lower",
        OPS_COLD,
    ),
    layer(
        "gateway.sync.replication_failures",
        "count",
        "lower",
        OPS_COLD,
    ),
    layer(
        "gateway.sync.missing_after_pass",
        "count",
        "lower",
        OPS_COLD,
    ),
    // Observability and the harness itself.
    layer("obs.span_us", "us", "lower", P50_HOT),
    layer("obs.spans_per_request", "count", "lower", P50_HOT),
    layer("typical.latency_p50_us", "us", "lower", HARNESS),
    layer("typical.latency_p90_us", "us", "lower", HARNESS),
    layer("harness.noise_ratio", "ratio", "lower", HARNESS),
    layer("harness.floor_support", "ratio", "higher", HARNESS),
    layer("harness.yardstick_us", "us", "lower", HARNESS),
    layer("harness.trace_overhead", "ratio", "lower", HARNESS),
    layer("harness.fixture_s", "s", "lower", HARNESS),
];

/// The text of `BENCHMARK.json`.
#[must_use]
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .filter(|w| w.gated)
        .map(|w| {
            let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            format!("    {{\"name\": \"{}\", \"why\": \"{why}\"}}", w.name)
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn committed_benchmark_json_is_the_catalog() {
        let path = crate::host::benchmark_dir().join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run --release -- --benchmark-json > ../BENCHMARK.json`"
        );
    }

    #[test]
    fn catalog_stays_inside_the_drivers_limits() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
            .collect();
        assert_eq!(
            names.iter().collect::<BTreeSet<_>>().len(),
            names.len(),
            "a name is used once"
        );
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for w in WORKLOADS {
            let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(why.len() <= 200, "{}: {} chars", w.name, why.len());
            assert!(!why.contains('"'));
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
