//! `cold-sweep`: every pass boots a fresh fleet on empty stores, submits
//! `gnn.wir`, and touches each triple for the first time, so every request
//! is a live simulation, a store append, and (through the gateway) a
//! replication — the path where the host physics is paid once per device.

use std::path::PathBuf;

use cactus_profiler::{csv, store as profile_store, Profile};
use cactus_store::Store;

use crate::catalog::COLD_SWEEP;
use crate::estimator::{permutation, BodyDigest, Samples, SplitMix64};
use crate::fleet::{ratio, stub_addr, Counters, Fleet, Placement, Stub, BACKENDS};
use crate::host::timed;
use crate::ops::{gnn_source, gnn_triples, scale_slug, sim_triples, views, Triple};
use crate::probes::{
    fresh_gpu, open_stores, run_native, span_cost_ns, SimProbes, TransportProbes, WirProbes,
};
use crate::read::{reconnect_samples, ReconnectSeries, TRACED_EVERY};
use crate::report::Report;
use crate::trace::Trace;
use crate::{e2e_metrics, noise_metrics, passes_for, rounds_for, ProgramSpans, Run};

/// The pass: op 0 is the `POST`, op `k` the `GET` of `targets[k-1]`; the
/// `GET`s of every pass go out in an order of their own.
struct Plan {
    targets: Vec<Triple>,
    views: Vec<&'static str>,
    /// The seed's stream after the views: the per-pass orders.
    orders: SplitMix64,
    /// Per target: the serial in-process simulation's profile document and
    /// kernel CSV — what `/v1/profile` and `/v1/kernels` must answer, byte
    /// for byte, and what the store must hold.
    oracle_profile: Vec<String>,
    oracle_kernels: Vec<String>,
    /// Per target: first body seen for the two views without an oracle.
    first_seen: Vec<Option<String>>,
    /// Launches of one serial pass over the targets.
    launches: usize,
}

/// The target a `GET` op fetches (op 0 is the `POST`).
fn target_of(op: usize) -> usize {
    op - 1
}

impl Plan {
    fn new(seed: u64) -> Self {
        let mut targets = gnn_triples();
        targets.extend(sim_triples());
        let mut orders = SplitMix64::new(seed);
        let views = views(targets.len(), &mut orders);
        let gnn = cactus_wir::parse(gnn_source()).expect("shipped gnn.wir parses");
        let mut launches = 0;
        let (oracle_profile, oracle_kernels) = targets
            .iter()
            .map(|t| {
                let mut gpu = fresh_gpu(t.device);
                if t.workload == "gnn" {
                    cactus_wir::run(&gnn, Some(scale_slug(t.scale)), &mut gpu)
                        .expect("shipped gnn.wir executes");
                } else {
                    run_native(t, &mut gpu);
                }
                launches += gpu.records().len();
                let profile = Profile::from_records(gpu.records());
                (
                    profile_store::write_profile(&profile),
                    csv::to_csv(&t.workload, &profile),
                )
            })
            .unzip();
        Self {
            first_seen: vec![None; targets.len()],
            targets,
            views,
            orders,
            oracle_profile,
            oracle_kernels,
            launches,
        }
    }

    fn ops(&self) -> usize {
        self.targets.len() + 1
    }

    /// The `GET`s of the next pass, in the order it issues them.
    fn next_order(&mut self) -> Vec<usize> {
        let order = permutation(self.targets.len(), &mut self.orders);
        order.into_iter().map(|t| t + 1).collect()
    }

    fn path_of(&self, op: usize) -> String {
        let t = target_of(op);
        self.targets[t].path(self.views[t])
    }

    /// Whether `body` is the right answer for op `op`.
    fn verify(&mut self, op: usize, body: &str) -> bool {
        let t = target_of(op);
        match self.views[t] {
            "profile" => body == self.oracle_profile[t],
            "kernels" => body == self.oracle_kernels[t],
            _ => self.first_seen[t].get_or_insert_with(|| body.to_owned()) == body,
        }
    }

    /// The verified body of op `op` (empty for a view not yet seen).
    fn body_of(&self, op: usize) -> &str {
        let t = target_of(op);
        match self.views[t] {
            "profile" => &self.oracle_profile[t],
            "kernels" => &self.oracle_kernels[t],
            _ => self.first_seen[t].as_deref().unwrap_or_default(),
        }
    }

    fn labels(&self) -> Vec<String> {
        std::iter::once("POST /v1/workloads".to_owned())
            .chain((1..self.ops()).map(|op| self.path_of(op)))
            .collect()
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Through the gateway, as a client would; `traced` puts
    /// `x-cactus-trace` on every [`TRACED_EVERY`]-th op and pulls the
    /// program's own spans for it.
    Via { traced: bool },
    /// Each op straight to its ring owner, then again for an LRU hit.
    Direct,
}

/// `(op, start_ns, dur_ns)` of a successful op.
type Sample = (usize, u64, u64);

struct PassResult {
    first: Vec<Sample>,
    /// Direct passes only: the immediate repeat of each `GET`.
    again: Vec<Sample>,
    reconnect: Vec<[(u64, u64); 2]>,
    /// Per sampled op, the spans the tiers recorded for it.
    program: Vec<(usize, Vec<(String, u64)>)>,
    /// Connections the client dialed to the gateway.
    dials: u64,
    store_open_ns: u64,
    boot_ns: u64,
    serve_boot_ns: u64,
    gateway_boot_ns: u64,
    counters: Counters,
    missing: u64,
    digest: BodyDigest,
}

fn empty_dirs(run: &Run) -> Result<Vec<PathBuf>, String> {
    let root = run.work.fresh("cold").map_err(|e| e.to_string())?;
    Ok((0..BACKENDS).map(|i| root.join(format!("b{i}"))).collect())
}

fn cold_pass(
    run: &Run,
    report: &mut Report,
    plan: &mut Plan,
    placement: &Placement,
    kind: Kind,
) -> Result<PassResult, String> {
    let dirs = empty_dirs(run)?;
    let (stores, store_open_ns) = open_stores(&dirs);
    drop(stores);
    let (fleet, _, boot_ns) = timed(|| Fleet::boot(run.base_port, &dirs));
    let fleet = fleet?;
    let mut gateway = fleet.gateway_conn();
    let mut backends = fleet.backend_conns();
    let mut first = Vec::with_capacity(plan.ops());
    let mut again = Vec::new();
    let mut program = Vec::new();
    let trace_id = |op: usize| {
        (kind == Kind::Via { traced: true } && op.is_multiple_of(TRACED_EVERY))
            .then(cactus_obs::TraceId::mint)
    };

    // Op 0: submit the workload definition. The gateway answers 200 only
    // when every backend accepted it.
    let id = trace_id(0);
    let (accepted, start, dur) = timed(|| match kind {
        Kind::Via { .. } => gateway
            .post_traced("/v1/workloads", gnn_source(), id)
            .is_ok_and(|r| r.status == 200),
        Kind::Direct => backends.iter_mut().all(|b| {
            b.post_traced("/v1/workloads", gnn_source(), None)
                .is_ok_and(|r| r.status == 200)
        }),
    });
    report.attempted += 1;
    if accepted {
        first.push((0, start, dur));
    } else {
        report.failed += 1;
        report.fail("cold-sweep: POST /v1/workloads was not accepted by all three backends".into());
    }
    program.extend(id.map(|id| (0, fleet.program_spans(id))));

    for op in plan.next_order() {
        let path = plan.path_of(op);
        let owner = placement.owner(&path);
        let id = trace_id(op);
        let (reply, start, dur) = timed(|| match kind {
            Kind::Via { .. } => gateway.get_traced(&path, id),
            Kind::Direct => backends[owner].get(&path),
        });
        report.attempted += 1;
        if reply.is_ok_and(|r| r.status == 200 && plan.verify(op, &r.body)) {
            first.push((op, start, dur));
        } else {
            report.failed += 1;
        }
        if kind == Kind::Direct {
            let (reply, start, dur) = timed(|| backends[owner].get(&path));
            report.attempted += 1;
            if reply.is_ok_and(|r| r.status == 200 && plan.verify(op, &r.body)) {
                again.push((op, start, dur));
            } else {
                report.failed += 1;
            }
        }
        program.extend(id.map(|id| (op, fleet.program_spans(id))));
    }

    let reconnect = if kind == Kind::Direct {
        let path = plan.path_of(1);
        reconnect_samples(&mut backends[placement.owner(&path)], &path)
    } else {
        Vec::new()
    };
    let counters = fleet.counters()?;
    // Hedge losers and replication pushes may still be in flight; the fleet
    // manifest a second later says what a pass leaves unreplicated.
    let missing = if kind == (Kind::Via { traced: true }) {
        std::thread::sleep(std::time::Duration::from_secs(1));
        fleet.missing()?
    } else {
        0
    };

    // What the pass persisted: every triple's record, from whichever backend
    // holds it, must be the serial simulation's profile document.
    let mut digest = BodyDigest::default();
    for (t, triple) in plan.targets.iter().enumerate() {
        let record_path = format!("/v1/store/record/{}", triple.key());
        let stored = placement
            .candidates(&triple.path(plan.views[t]))
            .into_iter()
            .find_map(|b| {
                let reply = backends[b].get(&record_path).ok()?;
                (reply.status == 200).then_some(reply.body)
            });
        match stored {
            Some(body) if body == plan.oracle_profile[t] => {
                digest.add(&triple.key(), body.as_bytes());
            }
            Some(_) => report.fail(format!(
                "cold-sweep: stored record {} differs from the serial simulation",
                triple.key()
            )),
            None => report.fail(format!("cold-sweep: no backend holds {}", triple.key())),
        }
    }

    let dials = gateway.dials();
    drop(gateway);
    drop(backends);
    let result = PassResult {
        first,
        again,
        reconnect,
        program,
        dials,
        store_open_ns,
        boot_ns,
        serve_boot_ns: fleet.serve_boot_ns,
        gateway_boot_ns: fleet.gateway_boot_ns,
        counters,
        missing,
        digest,
    };
    fleet.shutdown();
    Ok(result)
}

/// What accumulates over the via-gateway passes of a run.
#[derive(Default)]
struct Totals {
    counters: Counters,
    via_passes: usize,
    dials: u64,
    missing: u64,
    digest: Option<BodyDigest>,
    boot_ns: Option<u64>,
    serve_boot_ns: Option<u64>,
    gateway_boot_ns: Option<u64>,
    store_open_ns: Option<u64>,
}

fn keep_min(slot: &mut Option<u64>, v: u64) {
    *slot = Some(slot.map_or(v, |s| s.min(v)));
}

impl Totals {
    /// Fold in one pass and run the checks every pass must meet.
    fn pass(&mut self, report: &mut Report, plan: &Plan, kind: Kind, r: &PassResult) {
        keep_min(&mut self.store_open_ns, r.store_open_ns);
        keep_min(&mut self.boot_ns, r.boot_ns);
        keep_min(&mut self.serve_boot_ns, r.serve_boot_ns);
        keep_min(&mut self.gateway_boot_ns, r.gateway_boot_ns);
        let digest = *self.digest.get_or_insert(r.digest);
        report.check(digest == r.digest, || {
            format!(
                "cold-sweep: body digest {} differs from the first pass's {digest}",
                r.digest
            )
        });
        let distinct = plan.targets.len() as f64;
        report.check(r.counters.simulations >= distinct, || {
            format!(
                "cold-sweep: {} simulations in a pass of {distinct} distinct cold triples",
                r.counters.simulations
            )
        });
        if matches!(kind, Kind::Via { .. }) {
            // A fresh fleet per pass starts every counter at zero.
            self.counters = self.counters + r.counters;
            self.via_passes += 1;
            self.dials += r.dials;
            self.missing = self.missing.max(r.missing);
        }
    }

    fn report(&self, report: &mut Report, plan: &Plan) {
        let c = &self.counters;
        let passes = self.via_passes as f64;
        let distinct = plan.targets.len() as f64 * passes;
        let ops = plan.ops() as f64 * passes;
        report.metric("setup_s", self.boot_ns.unwrap_or(0) as f64 / 1e9);
        report.metric(
            "serve.boot_ms",
            self.serve_boot_ns.unwrap_or(0) as f64 / 1e6,
        );
        report.metric(
            "gateway.boot_ms",
            self.gateway_boot_ns.unwrap_or(0) as f64 / 1e6,
        );
        report.metric(
            "store.open_ms",
            self.store_open_ns.unwrap_or(0) as f64 / 1e6,
        );
        report.metric(
            "serve.server.reconnects_per_kop",
            self.dials as f64 / ops * 1e3,
        );
        report.metric("serve.sim.useful_ratio", ratio(distinct, c.simulations));
        report.metric("serve.cache.hit_ratio", c.cache_hit_ratio());
        report.metric("gateway.proxy.hedges_per_kop", c.hedges / ops * 1e3);
        report.metric(
            "gateway.proxy.hedge_win_ratio",
            ratio(c.hedge_wins, c.hedges),
        );
        report.metric("gateway.proxy.retries_per_kop", c.retries / ops * 1e3);
        report.metric("gateway.sync.replications_per_op", c.replications / ops);
        report.metric("gateway.sync.replication_failures", c.replication_failures);
        report.metric(
            "gateway.connpool.reuse_ratio",
            ratio(c.pool_reuses, c.pool_reuses + c.pool_dials),
        );
        report.metric(
            "gpu.memo.hit_ratio",
            ratio(c.memo_hits, c.memo_hits + c.memo_misses),
        );
        report.metric(
            "gpu.launches_per_pass",
            (c.memo_hits + c.memo_misses) / passes,
        );
        report.note(format!(
            "{} via-gateway passes: {} simulations for {distinct} distinct triples; a serial pass \
             launches {} kernels",
            self.via_passes, c.simulations, plan.launches
        ));
        if let Some(digest) = self.digest {
            report.note(format!("body_digest {digest}"));
        }
    }
}

pub fn run(run: &Run, report: &mut Report) -> Result<(), String> {
    let (mut plan, _, oracle_ns) = timed(|| Plan::new(run.seed));
    report.note(format!(
        "oracle: {} triples simulated serially in {:.3} s",
        plan.targets.len(),
        oracle_ns as f64 / 1e9
    ));
    report.metric("harness.fixture_s", oracle_ns as f64 / 1e9);
    let placement = Placement::new(run.base_port);
    let mut totals = Totals::default();

    if run.trace {
        traced(run, report, &mut plan, &placement, &mut totals)?;
    } else {
        let kind = Kind::Via { traced: false };
        let mut samples = Samples::new(plan.ops());
        for _ in 0..passes_for(run, COLD_SWEEP.nominal_pass_s) {
            let result = cold_pass(run, report, &mut plan, &placement, kind)?;
            totals.pass(report, &plan, kind, &result);
            samples.begin_pass();
            for (op, start, dur) in result.first {
                samples.record(op, start, dur);
            }
        }
        e2e_metrics(report, &samples, 1.0);
        noise_metrics(report, &samples);
    }
    totals.report(report, &plan);
    Ok(())
}

/// The traced run: rounds of a `via` pass (every [`TRACED_EVERY`]-th op
/// carries `x-cactus-trace`; the program's own spans for it are pulled back
/// outside the timed window), a `direct` pass — each on a fleet of its own —
/// and a `probe` pass that runs the same triples in process (natively, then
/// as a replay of the captured descriptor stream). Three ops in 133 carrying a
/// header is no tracing to speak of, so `harness.trace_overhead` reads 0.
#[allow(clippy::too_many_lines)]
fn traced(
    run: &Run,
    report: &mut Report,
    plan: &mut Plan,
    placement: &Placement,
    totals: &mut Totals,
) -> Result<(), String> {
    // A round is two fresh-fleet passes and two native passes long.
    let rounds = rounds_for(run, COLD_SWEEP.nominal_pass_s * 4.0);
    let ops = plan.ops();
    let mut trace = Trace::new(ops);
    let via = trace.series("via", "pass");
    let direct = trace.series("direct.first", "pass");
    let again = trace.series("direct.again", "pass");
    let store_miss = trace.series("store.get", "probe");
    let reconnect = ReconnectSeries::new(&mut trace);
    let mut transport =
        TransportProbes::new(&mut trace, Placement::new(run.base_port), ops, "probe");
    let mut sim = SimProbes::new(&mut trace, ops, "probe");
    let wir = WirProbes::new(&mut trace, "probe");
    let stub = Stub::start(stub_addr(run.base_port)).map_err(|e| format!("stub: {e}"))?;
    let mut stub_conn = stub.conn();
    let mut samples = Samples::new(ops);
    let mut program = ProgramSpans::default();

    for round in 0..rounds as u32 {
        for (kind, series) in [(Kind::Via { traced: true }, via), (Kind::Direct, direct)] {
            let result = cold_pass(run, report, plan, placement, kind)?;
            totals.pass(report, plan, kind, &result);
            if kind != Kind::Direct {
                samples.begin_pass();
            }
            for &(op, start, dur) in &result.first {
                trace.record(series, op, round, start, dur);
                if kind != Kind::Direct {
                    samples.record(op, start, dur);
                }
            }
            for &(op, start, dur) in &result.again {
                trace.record(again, op, round, start, dur);
            }
            reconnect.record(&mut trace, round, &result.reconnect);
            for (op, spans) in result.program {
                program.add(op, spans);
            }
        }

        // Probe pass: the same ops in process, into a fresh scratch store.
        let scratch_dir = run.work.fresh("scratch").map_err(|e| e.to_string())?;
        let scratch = Store::open(&scratch_dir).map_err(|e| e.to_string())?;
        // The microsecond probes first, in a loop of their own: after a
        // simulation the caches hold nothing of theirs.
        for op in 1..ops {
            let key = plan.targets[target_of(op)].key();
            let missed = trace.span(store_miss, op, round, || scratch.get(&key));
            assert!(
                matches!(missed, Ok(None)),
                "a cold triple is not in the store"
            );
            transport.run(
                &mut trace,
                &mut stub_conn,
                op,
                round,
                &plan.path_of(op),
                plan.body_of(op),
            );
        }
        let gnn = wir.validate(&mut trace, 0, round, gnn_source());
        for op in 1..ops {
            let t = target_of(op);
            let triple = &plan.targets[t];
            if triple.workload == "gnn" {
                // The interpreter's run is this triple's whole simulation.
                let mut gpu = fresh_gpu(triple.device);
                let (start, dur) = wir.exec(&mut trace, op, round, &gnn, triple.scale, &mut gpu);
                trace.record(sim.native, op, round, start, dur);
            } else {
                sim.run(&mut trace, &scratch, op, round, triple, plan.views[t], true);
            }
        }
    }
    drop(stub_conn);
    stub.stop();

    report.metric("gateway.sync.missing_after_pass", totals.missing as f64);
    noise_metrics(report, &samples);
    transport.report(report, &trace, 1..ops, via, direct, again);
    let us = |id| trace.floors(id).median_us();
    let sum_ms = |id| trace.floors(id).sum_ns() as f64 / 1e6;
    report.metric("serve.server.reconnect_us", reconnect.cost_us(&trace));
    report.metric("store.get_us", us(store_miss));
    report.metric("profiler.render_us", us(sim.render));
    report.metric("profiler.from_records_us", us(sim.from_records));
    report.metric("store.append_us", us(sim.append));
    report.metric(
        "store.bytes_per_record",
        ratio(sim.record_bytes as f64, sim.records as f64),
    );
    report.metric("wir.parse_us", us(wir.parse));
    report.metric("wir.check_us", us(wir.check));
    report.metric("wir.exec_us", us(wir.exec));
    report.metric(
        "serve.workload_post_ms",
        trace.floor(via, 0).unwrap_or(0) as f64 / 1e6,
    );

    // The simulation split and the cold-path overhead, summed over the GETs
    // of a pass so they add up to the pass's Σ floor.
    let get_sum_ms = |id| (1..ops).filter_map(|op| trace.floor(id, op)).sum::<u64>() as f64 / 1e6;
    let model = sum_ms(sim.replay);
    let native = sum_ms(sim.native);
    let via_ms = get_sum_ms(via);
    report.metric("gpu.model_eval_ms", model);
    report.metric("gpu.model_eval_nomemo_ms", sum_ms(sim.replay_nomemo));
    report.metric("host.derive_ms", native - model);
    report.metric("serve.cold_overhead_ms", via_ms - native);
    report.metric("gateway.sync.replicate_ms", via_ms - get_sum_ms(direct));
    report.metric("obs.span_us", span_cost_ns(8) / 1e3);
    // Per triple the in-process floor should sit below the fleet's; with a
    // handful of samples a side some do not, so only the sums are checked.
    let inverted = (1..ops)
        .filter(|&op| trace.floor(sim.native, op) > trace.floor(via, op))
        .count();
    report.note(format!(
        "native floor above via-gateway floor on {inverted} of {} GETs",
        ops - 1
    ));
    report.check(native <= via_ms, || {
        format!(
            "host.derive + gpu.model_eval ({native} ms) exceed the via-gateway pass ({via_ms} ms)"
        )
    });
    report.note(format!(
        "chain (ms per pass, sums of per-op floors over the GETs): via {via_ms:.3} ~ native \
         {native:.3} (host.derive {:.3} + gpu.model_eval {model:.3}) + serve.cold_overhead {:.3}; \
         direct {:.3}",
        native - model,
        via_ms - native,
        get_sum_ms(direct)
    ));
    program.report(report);
    // Against the native floors of the GETs that carried a trace id.
    let mut sampled: Vec<u64> = (TRACED_EVERY..ops)
        .step_by(TRACED_EVERY)
        .filter_map(|op| trace.floor(sim.native, op))
        .collect();
    if !sampled.is_empty() {
        let outside = crate::estimator::median_u64(&mut sampled) as f64 / 1e3;
        program.compare(report, "serve.simulate", outside);
    }

    let file = trace
        .write(&format!("cold-sweep-seed{}", run.seed), &plan.labels())
        .map_err(|e| format!("trace file: {e}"))?;
    report.note(format!("floored spans written to {}", file.display()));
    Ok(())
}
