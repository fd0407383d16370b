//! `hot-read` and `store-read`: `GET`s through the gateway against a fleet
//! booted on a prepared store. The two share everything but the path set
//! and the op order, which decide whether a request hits its backend's LRU.

use std::path::PathBuf;

use cactus_profiler::{csv, store as profile_store, Profile};
use cactus_serve::routes::TRIPLE_ENDPOINTS;
use cactus_serve::Connection;

use crate::catalog::Workload;
use crate::estimator::{BodyDigest, Samples, FAILED};
use crate::fleet::{ratio, stub_addr, Counters, Fleet, Placement, Stub, BACKENDS};
use crate::host::{copy_dir, now_ns, timed};
use crate::ops::{all_views, Triple};
use crate::probes::{
    fresh_gpu, open_stores, run_native, span_cost_ns, StoreProbes, TransportProbes,
};
use crate::report::Report;
use crate::trace::{SeriesId, Trace};
use crate::yardstick::{Yardstick, BEAT_EVERY, REFERENCE_US};
use crate::{e2e_metrics, noise_metrics, passes_for, rounds_for, ProgramSpans, Run};

/// Set-up repetitions before and after the passes: the set-up pass is
/// floored like any other.
const SETUP_REPS: (usize, usize) = (5, 4);
/// Every this-many-th op of a traced pass carries `x-cactus-trace`.
pub const TRACED_EVERY: usize = 64;
/// Fresh-connection / keep-alive pairs per direct pass for the reconnect cost.
const RECONNECT_PAIRS: usize = 16;

pub struct ReadSpec {
    pub workload: &'static Workload,
    pub triples: fn() -> Vec<Triple>,
    pub ops: fn(usize, u64) -> Vec<usize>,
    /// Whether every timed request must hit (`true`) or miss (`false`) the
    /// response cache: the self-check that the workload is what it says.
    pub expect_hits: bool,
}

struct Fixture {
    dirs: Vec<PathBuf>,
    /// First body seen per path; the expected body thereafter.
    expected: Vec<String>,
    seconds: f64,
    missing_left: u64,
}

fn backend_dirs(root: &std::path::Path) -> Vec<PathBuf> {
    (0..BACKENDS).map(|i| root.join(format!("b{i}"))).collect()
}

/// Simulate every triple serially in process, ingest its record into all
/// three (empty) backends through their public `/v1/store/record` route,
/// then drive every path once through the gateway, shut down, and keep the
/// store directories. Letting the fleet simulate would cost three times as
/// much: `routing_key` shards on the endpoint too, so a triple's four views
/// land on different backends and each simulates it over again. The serial
/// simulation doubles as the oracle for the two views rendered in public.
fn build_fixture(run: &Run, triples: &[Triple], paths: &[String]) -> Result<Fixture, String> {
    let root = run.work.fresh("fixture").map_err(|e| e.to_string())?;
    let dirs = backend_dirs(&root);
    let started = now_ns();
    let fleet = Fleet::boot(run.base_port, &dirs)?;
    let mut backends = fleet.backend_conns();
    let mut conn = fleet.gateway_conn();
    let mut expected = Vec::with_capacity(paths.len());
    for triple in triples {
        let mut gpu = fresh_gpu(triple.device);
        run_native(triple, &mut gpu);
        let profile = Profile::from_records(gpu.records());
        let record = profile_store::write_profile(&profile);
        let record_path = format!("/v1/store/record/{}", triple.key());
        for b in &mut backends {
            let reply = b
                .post_traced(&record_path, &record, None)
                .map_err(|e| format!("fixture ingest {record_path}: {e}"))?;
            if reply.status != 200 {
                return Err(format!(
                    "fixture ingest {record_path}: status {}",
                    reply.status
                ));
            }
        }
        for view in TRIPLE_ENDPOINTS {
            let path = triple.path(view);
            let reply = conn
                .get(&path)
                .map_err(|e| format!("fixture {path}: {e}"))?;
            let oracle = match view {
                "profile" => Some(&record),
                "kernels" => Some(&csv::to_csv(&triple.workload, &profile)),
                _ => None,
            };
            if reply.status != 200 || oracle.is_some_and(|o| *o != reply.body) {
                return Err(format!(
                    "fixture {path}: status {} or a body that differs from the serial simulation",
                    reply.status
                ));
            }
            expected.push(reply.body);
        }
    }
    drop(backends);
    let deadline = now_ns() + 5_000_000_000;
    let mut missing_left = fleet.missing()?;
    while missing_left > 0 && now_ns() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
        missing_left = fleet.missing()?;
    }
    drop(conn);
    fleet.shutdown();
    Ok(Fixture {
        dirs,
        expected,
        seconds: (now_ns() - started) as f64 / 1e9,
        missing_left,
    })
}

/// One `GET` and its verdict: the sample, or [`FAILED`] for a non-200, a
/// transport error, or a body that is not the path's expected one.
fn timed_get(conn: &mut Connection, path: &str, expected: &str) -> (u64, u64) {
    let (reply, start, dur) = timed(|| conn.get(path));
    match reply {
        Ok(r) if r.status == 200 && r.body == expected => (start, dur),
        _ => (start, FAILED),
    }
}

/// The set-up pass — boot until the gateway is ready, then the first pass
/// over the path set — floored like any other: the fastest boot plus each
/// path's fastest first touch, at the speed of the beats among them.
struct SetUp {
    boot_ns: u64,
    serve_boot_ns: u64,
    gateway_boot_ns: u64,
    store_open_ns: u64,
    first_touch: Samples,
    beats: Samples,
}

impl SetUp {
    fn new(paths: usize) -> Self {
        Self {
            boot_ns: u64::MAX,
            serve_boot_ns: u64::MAX,
            gateway_boot_ns: u64::MAX,
            store_open_ns: u64::MAX,
            first_touch: Samples::new(paths),
            beats: Samples::new(paths / BEAT_EVERY),
        }
    }

    /// One repetition, from a fresh copy of the fixture. Returns the fleet it
    /// booted.
    fn rep(
        &mut self,
        run: &Run,
        report: &mut Report,
        yard: &mut Yardstick,
        fixture: &Fixture,
        paths: &[String],
    ) -> Result<(Fleet, Connection), String> {
        let root = run.work.fresh("run").map_err(|e| e.to_string())?;
        let dirs = backend_dirs(&root);
        for (from, to) in fixture.dirs.iter().zip(&dirs) {
            copy_dir(from, to).map_err(|e| e.to_string())?;
        }
        let (stores, open_ns) = open_stores(&dirs);
        drop(stores);
        self.store_open_ns = self.store_open_ns.min(open_ns);

        let (fleet, _, boot_ns) = timed(|| Fleet::boot(run.base_port, &dirs));
        let fleet = fleet?;
        self.boot_ns = self.boot_ns.min(boot_ns);
        self.serve_boot_ns = self.serve_boot_ns.min(fleet.serve_boot_ns);
        self.gateway_boot_ns = self.gateway_boot_ns.min(fleet.gateway_boot_ns);
        let mut conn = fleet.gateway_conn();
        let in_order: Vec<usize> = (0..paths.len()).collect();
        let first_touch = &mut self.first_touch;
        first_touch.begin_pass();
        via_pass(
            report,
            &mut conn,
            paths,
            &in_order,
            &fixture.expected,
            yard,
            &mut self.beats,
            |op, s, d| first_touch.record(op, s, d),
        )?;
        Ok((fleet, conn))
    }

    fn report(&self, report: &mut Report, fixture: &Fixture) {
        let (scale, _) = speed_scale(report, &self.beats);
        let ns = self.boot_ns + self.first_touch.floors.sum_ns();
        report.check(self.first_touch.floors.missing() == 0, || {
            "a path was never answered during set-up".into()
        });
        report.metric("setup_s", ns as f64 / 1e9 * scale);
        report.metric("harness.fixture_s", fixture.seconds);
        report.metric("store.open_ms", self.store_open_ns as f64 / 1e6);
        report.metric("serve.boot_ms", self.serve_boot_ns as f64 / 1e6);
        report.metric("gateway.boot_ms", self.gateway_boot_ns as f64 / 1e6);
    }
}

pub fn run(spec: &ReadSpec, run: &Run, report: &mut Report) -> Result<(), String> {
    let triples = (spec.triples)();
    let paths = all_views(&triples);
    let ops = (spec.ops)(paths.len(), run.seed);
    let fixture = build_fixture(run, &triples, &paths)?;
    report.note(format!(
        "fixture: {} paths, {:.3} s, missing replica slots left {}",
        paths.len(),
        fixture.seconds,
        fixture.missing_left
    ));
    let mut yard = Yardstick::start().map_err(|e| format!("yardstick: {e}"))?;

    // Set-up repetitions before the passes and after them, so that they do
    // not all see the machine in one state; the last one before the passes
    // boots the fleet the passes run against.
    let (before, after) = if run.smoke { (1, 1) } else { SETUP_REPS };
    let mut set_up = SetUp::new(paths.len());
    for _ in 1..before {
        let (fleet, conn) = set_up.rep(run, report, &mut yard, &fixture, &paths)?;
        drop(conn);
        fleet.shutdown();
    }
    let (fleet, mut conn) = set_up.rep(run, report, &mut yard, &fixture, &paths)?;

    // One untimed cycle in the seeded order, so the first timed pass already
    // sees the steady LRU state of every later one.
    for &p in &ops[..paths.len()] {
        let _ = conn.get(&paths[p]);
    }

    let mut digest = BodyDigest::default();
    for (path, body) in paths.iter().zip(&fixture.expected) {
        digest.add(path, body.as_bytes());
    }
    report.note(format!("body_digest {digest}"));

    let timed_run = TimedRun {
        spec,
        run,
        fleet: &fleet,
        paths: &paths,
        ops: &ops,
        fixture: &fixture,
    };
    let outcome = if run.trace {
        timed_run.traced(report, &mut conn, &mut yard)
    } else {
        timed_run.plain(report, &mut conn, &mut yard)
    };
    drop(conn);
    fleet.shutdown();
    outcome?;

    for _ in 0..after {
        let (fleet, conn) = set_up.rep(run, report, &mut yard, &fixture, &paths)?;
        drop(conn);
        fleet.shutdown();
    }
    set_up.report(report, &fixture);
    Ok(())
}

/// What the times measured among `beats` are multiplied by so that they read
/// as on the reference machine, and the median beat floor itself in µs.
fn speed_scale(report: &mut Report, beats: &Samples) -> (f64, f64) {
    let beat_us = beats.floors.median_us();
    if beat_us > 0.0 {
        (REFERENCE_US / beat_us, beat_us)
    } else {
        report.fail("no yardstick beat succeeded".into());
        (1.0, 0.0)
    }
}

/// One pass through the gateway with a yardstick beat after every
/// [`BEAT_EVERY`]-th op; `sink(op, start_ns, dur_ns)` gets every successful
/// sample, `beats` the beats of a pass of its own.
#[allow(clippy::too_many_arguments)]
fn via_pass(
    report: &mut Report,
    conn: &mut Connection,
    paths: &[String],
    ops: &[usize],
    expected: &[String],
    yard: &mut Yardstick,
    beats: &mut Samples,
    mut sink: impl FnMut(usize, u64, u64),
) -> Result<(), String> {
    beats.begin_pass();
    for (op, &p) in ops.iter().enumerate() {
        let (start, dur) = timed_get(conn, &paths[p], &expected[p]);
        report.attempted += 1;
        if dur == FAILED {
            report.failed += 1;
        } else {
            sink(op, start, dur);
        }
        if (op + 1).is_multiple_of(BEAT_EVERY) {
            let (start, dur) = yard.beat().map_err(|e| format!("yardstick: {e}"))?;
            beats.record(op / BEAT_EVERY, start, dur);
        }
    }
    Ok(())
}

/// What the timed passes of one run share.
struct TimedRun<'a> {
    spec: &'a ReadSpec,
    run: &'a Run,
    fleet: &'a Fleet,
    paths: &'a [String],
    ops: &'a [usize],
    fixture: &'a Fixture,
}

impl TimedRun<'_> {
    /// The untraced run: the end-to-end metrics.
    fn plain(
        &self,
        report: &mut Report,
        conn: &mut Connection,
        yard: &mut Yardstick,
    ) -> Result<(), String> {
        let passes = passes_for(self.run, self.spec.workload.nominal_pass_s);
        let before = self.fleet.counters()?;
        let dials_before = conn.dials();
        let mut samples = Samples::new(self.ops.len());
        let mut beats = Samples::new(self.ops.len() / BEAT_EVERY);
        for _ in 0..passes {
            samples.begin_pass();
            via_pass(
                report,
                conn,
                self.paths,
                self.ops,
                &self.fixture.expected,
                yard,
                &mut beats,
                |op, s, d| samples.record(op, s, d),
            )?;
        }
        let delta = self.fleet.counters()? - before;
        let dials = conn.dials() - dials_before;
        let ops = (passes * self.ops.len()) as f64;
        check_counters(self.spec, report, &delta, dials, ops);
        let (scale, beat_us) = speed_scale(report, &beats);
        report.metric("harness.yardstick_us", beat_us);
        e2e_metrics(report, &samples, scale);
        noise_metrics(report, &samples);
        Ok(())
    }
}

/// The self-checks that a read workload measured what its name says, and the
/// count metrics that come from the same `/v1/metricsz` deltas.
fn check_counters(spec: &ReadSpec, report: &mut Report, delta: &Counters, dials: u64, ops: f64) {
    let hit_ratio = delta.cache_hit_ratio();
    report.metric("serve.cache.hit_ratio", hit_ratio);
    report.metric(
        "gateway.connpool.reuse_ratio",
        ratio(delta.pool_reuses, delta.pool_reuses + delta.pool_dials),
    );
    report.metric("serve.server.reconnects_per_kop", dials as f64 / ops * 1e3);
    report.metric("gateway.proxy.hedges_per_kop", delta.hedges / ops * 1e3);
    report.metric("gateway.proxy.retries_per_kop", delta.retries / ops * 1e3);
    report.metric(
        "gateway.proxy.hedge_win_ratio",
        ratio(delta.hedge_wins, delta.hedges),
    );
    // A request stalled past the gateway's 20 ms hedge floor is raced on the
    // ring's second backend, which holds the record but not the rendered
    // body: the one legitimate way a read pass reaches a store.
    let name = spec.workload.name;
    report.check(delta.simulations == 0.0, || {
        format!("{name}: {} simulations during passes", delta.simulations)
    });
    if spec.expect_hits {
        report.check(hit_ratio >= 0.99, || {
            format!("{name}: cache hit ratio {hit_ratio} < 0.99")
        });
        report.check(delta.store_hits <= delta.hedges, || {
            format!(
                "{name}: {} store hits during passes, {} hedges to explain them",
                delta.store_hits, delta.hedges
            )
        });
    } else {
        report.check(hit_ratio <= 0.01, || {
            format!("{name}: cache hit ratio {hit_ratio} > 0.01")
        });
    }
}

/// Samples of one LRU-hit `GET` on a fresh connection (dial, accept poll,
/// worker hand-off) and on the kept one: what a forced close costs the
/// request after it. `(start_ns, dur_ns)` pairs, failures dropped.
pub fn reconnect_samples(kept: &mut Connection, path: &str) -> Vec<[(u64, u64); 2]> {
    let ok = |r: Result<cactus_serve::client::HttpReply, _>| r.is_ok_and(|r| r.status == 200);
    (0..RECONNECT_PAIRS)
        .filter_map(|_| {
            let mut fresh = Connection::new(kept.addr(), crate::fleet::CLIENT_TIMEOUT);
            let (a, a_start, a_dur) = timed(|| fresh.get(path));
            let (b, b_start, b_dur) = timed(|| kept.get(path));
            (ok(a) && ok(b)).then_some([(a_start, a_dur), (b_start, b_dur)])
        })
        .collect()
}

/// The two single-op series behind `serve.server.reconnect_us`.
pub struct ReconnectSeries {
    fresh: SeriesId,
    kept: SeriesId,
}

impl ReconnectSeries {
    pub fn new(trace: &mut Trace) -> Self {
        Self {
            fresh: trace.series("direct.fresh_connection", "pass"),
            kept: trace.series("direct.kept_connection", "pass"),
        }
    }

    pub fn record(&self, trace: &mut Trace, round: u32, samples: &[[(u64, u64); 2]]) {
        for [fresh, kept] in samples {
            trace.record(self.fresh, 0, round, fresh.0, fresh.1);
            trace.record(self.kept, 0, round, kept.0, kept.1);
        }
    }

    #[must_use]
    pub fn cost_us(&self, trace: &Trace) -> f64 {
        trace.median_diff_us(0..1, self.fresh, self.kept)
    }
}

impl TimedRun<'_> {
    /// The traced run: rounds of four pass kinds over the same ops — `plain`
    /// (exactly an untraced pass), `traced` (the same, but every
    /// [`TRACED_EVERY`]-th op carries `x-cactus-trace` and the program's own
    /// spans for it are pulled back), `direct` (each op sent to its ring
    /// owner, then immediately again for a guaranteed LRU hit) and `probe`
    /// (in-process calls on the op's bytes) — all floored per op.
    #[allow(clippy::too_many_lines)]
    fn traced(
        &self,
        report: &mut Report,
        conn: &mut Connection,
        yard: &mut Yardstick,
    ) -> Result<(), String> {
        let &Self {
            spec,
            run,
            fleet,
            paths,
            ops,
            fixture,
        } = self;
        let expected = &fixture.expected;
        let rounds = rounds_for(run, spec.workload.nominal_pass_s * 2.5);
        let mut trace = Trace::new(ops.len());
        let plain = trace.series("via.plain", "pass");
        let traced = trace.series("via.traced", "pass");
        let direct = trace.series("direct.first", "pass");
        let again = trace.series("direct.again", "pass");
        let reconnect = ReconnectSeries::new(&mut trace);
        let mut transport = TransportProbes::new(
            &mut trace,
            Placement::new(fleet.base()),
            paths.len(),
            "probe",
        );
        let store_probes = StoreProbes::new(&mut trace, "probe");
        let stub = Stub::start(stub_addr(fleet.base())).map_err(|e| format!("stub: {e}"))?;
        let mut stub_conn = stub.conn();
        let mut backends = fleet.backend_conns();

        // Probe stores: a second copy of the fixture, never served from.
        let probe_root = run.work.fresh("probe").map_err(|e| e.to_string())?;
        let probe_dirs = backend_dirs(&probe_root);
        for (from, to) in fixture.dirs.iter().zip(&probe_dirs) {
            copy_dir(from, to).map_err(|e| e.to_string())?;
        }
        let (probe_stores, _) = open_stores(&probe_dirs);

        let triples = (spec.triples)();
        let views = TRIPLE_ENDPOINTS.len();
        let mut samples = Samples::new(ops.len());
        let mut beats = Samples::new(ops.len() / BEAT_EVERY);
        let mut program = ProgramSpans::default();
        // Counted over the via-gateway passes only: the direct pass's repeat
        // GETs are hits by construction.
        let mut delta = Counters::default();
        let mut dials = 0;

        for round in 0..rounds as u32 {
            let before = fleet.counters()?;
            let dials_before = conn.dials();
            samples.begin_pass();
            via_pass(
                report,
                conn,
                paths,
                ops,
                expected,
                yard,
                &mut beats,
                |op, s, d| {
                    samples.record(op, s, d);
                    trace.record(plain, op, round, s, d);
                },
            )?;

            for (op, &p) in ops.iter().enumerate() {
                let id = (op.is_multiple_of(TRACED_EVERY)).then(cactus_obs::TraceId::mint);
                let (reply, start, dur) = timed(|| conn.get_traced(&paths[p], id));
                report.attempted += 1;
                if reply.is_ok_and(|r| r.status == 200 && r.body == expected[p]) {
                    trace.record(traced, op, round, start, dur);
                } else {
                    report.failed += 1;
                }
                if let Some(id) = id {
                    program.add(op, fleet.program_spans(id));
                }
                if (op + 1).is_multiple_of(BEAT_EVERY) {
                    yard.beat().map_err(|e| format!("yardstick: {e}"))?;
                }
            }
            delta = delta + (fleet.counters()? - before);
            dials += conn.dials() - dials_before;

            for (op, &p) in ops.iter().enumerate() {
                let owner = transport.placement().owner(&paths[p]);
                for series in [direct, again] {
                    let (start, dur) = timed_get(&mut backends[owner], &paths[p], &expected[p]);
                    report.attempted += 1;
                    if dur == FAILED {
                        report.failed += 1;
                    } else {
                        trace.record(series, op, round, start, dur);
                    }
                }
            }
            let path = &paths[ops[0]];
            let owner = transport.placement().owner(path);
            reconnect.record(
                &mut trace,
                round,
                &reconnect_samples(&mut backends[owner], path),
            );

            for (op, &p) in ops.iter().enumerate() {
                transport.run(
                    &mut trace,
                    &mut stub_conn,
                    op,
                    round,
                    &paths[p],
                    &expected[p],
                );
                if !spec.expect_hits {
                    let owner = transport.placement().owner(&paths[p]);
                    let body = store_probes.run(
                        &mut trace,
                        &probe_stores[owner],
                        op,
                        round,
                        &triples[p / views],
                        TRIPLE_ENDPOINTS[p % views],
                    );
                    report.check(body.is_none_or(|b| b == expected[p]), || {
                        format!("{}: probe render differs from the served body", paths[p])
                    });
                }
            }
        }

        check_counters(spec, report, &delta, dials, (2 * rounds * ops.len()) as f64);
        noise_metrics(report, &samples);
        let (_, beat_us) = speed_scale(report, &beats);
        report.metric("harness.yardstick_us", beat_us);
        drop(stub_conn);
        stub.stop();
        drop(backends);

        let all = 0..ops.len();
        let unattributed = transport.report(report, &trace, all.clone(), plain, direct, again);
        report.check(!spec.expect_hits || unattributed >= 0.0, || {
            format!("serve.server.unattributed_us is negative: {unattributed}")
        });
        report.metric("serve.server.reconnect_us", reconnect.cost_us(&trace));
        report.metric(
            "harness.trace_overhead",
            trace.floors(traced).sum_ns() as f64 / trace.floors(plain).sum_ns().max(1) as f64 - 1.0,
        );
        report.metric("obs.span_us", span_cost_ns(8) / 1e3);
        program.report(report);

        let us = |id| trace.floors(id).median_us();
        let cache_get = us(transport.cache_get);
        if spec.expect_hits {
            program.compare(report, "serve.cache", cache_get);
        } else {
            let get = us(store_probes.get);
            let decode = us(store_probes.decode);
            let render = us(store_probes.render);
            let store_path = trace.median_diff_us(all, direct, again);
            let rest = store_path - get - decode - render;
            report.metric("store.get_us", get);
            report.metric("profiler.decode_us", decode);
            report.metric("profiler.render_us", render);
            report.metric("serve.store_path_us", store_path);
            report.metric("serve.store_path_unattributed_us", rest);
            report.check(rest >= 0.0, || {
                format!(
                    "store probes {get} + {decode} + {render} exceed the store path {store_path}"
                )
            });
            report.note(format!(
            "chain (us): store path {store_path:.3} (direct first - direct LRU hit) ~ store.get \
             {get:.3} + decode {decode:.3} + render {render:.3} + unattributed {rest:.3}"
        ));
            program.compare(report, "serve.store", get + decode);
            program.compare(report, "serve.request", store_path + cache_get);
        }

        let labels: Vec<String> = ops.iter().map(|&p| paths[p].clone()).collect();
        let file = trace
            .write(&format!("{}-seed{}", spec.workload.name, run.seed), &labels)
            .map_err(|e| format!("trace file: {e}"))?;
        report.note(format!("floored spans written to {}", file.display()));
        Ok(())
    }
}
