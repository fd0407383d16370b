//! Per-layer probes: the benchmark's own calls into single layers of the
//! program, on the bytes, record or triple of the op being attributed, in a
//! pass of their own so they never disturb LRU or store state.

use std::ops::Range;
use std::path::Path;

use cactus_core::SuiteScale;
use cactus_gpu::prelude::KernelDesc;
use cactus_gpu::Gpu;
use cactus_obs::{TraceId, Tracer, TRACE_HEADER};
use cactus_profiler::{csv, store as profile_store, Profile};
use cactus_serve::cache::{CachedResponse, ResponseCache};
use cactus_serve::http;
use cactus_serve::Connection;
use cactus_store::Store;

use crate::estimator::median_i64;
use crate::fleet::Placement;
use crate::host::timed;
use crate::ops::{scale_slug, Triple};
use crate::report::Report;
use crate::trace::{SeriesId, Trace};

const TEXT: &str = "text/plain; charset=utf-8";

/// Run one triple the way `ProfileService::simulate` does, on `gpu`.
///
/// # Panics
///
/// On a triple outside the catalogs: the op sets are built from them.
pub fn run_native(triple: &Triple, gpu: &mut Gpu) {
    if let Some(w) = cactus_core::workloads::by_abbr(&triple.workload) {
        w.run(gpu, triple.scale);
    } else {
        let b = cactus_suites::by_name(&triple.workload).expect("catalog workload");
        let scale = match triple.scale {
            SuiteScale::Profile => cactus_suites::Scale::Profile,
            SuiteScale::Tiny | SuiteScale::Small => cactus_suites::Scale::Tiny,
        };
        b.run(gpu, scale);
    }
}

/// # Panics
///
/// On a device id outside the catalog.
#[must_use]
pub fn fresh_gpu(device: &str) -> Gpu {
    Gpu::new(cactus_gpu::by_id(device).expect("catalog device").device())
}

/// What every HTTP op costs whatever it fetches: parsing the request the
/// backend receives, routing it, the response-cache lookup, serialising the
/// reply, and the client's own round trip against a peer that does nothing.
pub struct TransportProbes {
    placement: Placement,
    cache: ResponseCache,
    wire_out: Vec<u8>,
    trace_id: TraceId,
    pub parse: SeriesId,
    pub write: SeriesId,
    pub route: SeriesId,
    pub cache_get: SeriesId,
    pub client: SeriesId,
}

impl TransportProbes {
    pub fn new(
        trace: &mut Trace,
        placement: Placement,
        paths: usize,
        parent: &'static str,
    ) -> Self {
        Self {
            placement,
            // Sized to the path set: the probe times a lookup that hits.
            cache: ResponseCache::new(paths.max(1)),
            wire_out: Vec::with_capacity(64 * 1024),
            trace_id: TraceId::mint(),
            parse: trace.series("serve.http.parse", parent),
            write: trace.series("serve.http.write", parent),
            route: trace.series("gateway.ring.route", parent),
            cache_get: trace.series("serve.cache.get", parent),
            client: trace.series("harness.client", parent),
        }
    }

    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Probe one op: `path` as requested, `body` as answered.
    pub fn run(
        &mut self,
        trace: &mut Trace,
        stub: &mut Connection,
        op: usize,
        pass: u32,
        path: &str,
        body: &str,
    ) {
        // The request as a backend sees it: the gateway always forwards the
        // trace id.
        let wire = format!(
            "GET {path} HTTP/1.1\r\nhost: 127.0.0.1:0\r\nconnection: keep-alive\r\n{TRACE_HEADER}: {}\r\n\r\n",
            self.trace_id
        );
        let parsed = trace.span(self.parse, op, pass, || {
            http::read_request(&mut wire.as_bytes())
        });
        assert!(parsed.is_ok_and(|r| r.path == path), "probe request parses");

        let candidates = trace.span(self.route, op, pass, || self.placement.candidates(path));
        std::hint::black_box(candidates);

        if self.cache.get(path).is_none() {
            self.cache.put(
                path,
                CachedResponse {
                    content_type: TEXT,
                    body: body.to_owned(),
                },
            );
        }
        let hit = trace.span(self.cache_get, op, pass, || self.cache.get(path));
        let response = hit.expect("probe cache holds the path").to_response();

        let response = response.traced(self.trace_id);
        self.wire_out.clear();
        let out = &mut self.wire_out;
        let wrote = trace.span(self.write, op, pass, || response.write_conn(out, true));
        assert!(wrote.is_ok() && self.wire_out.ends_with(body.as_bytes()));

        let stub_path = format!("/stub/{}", body.len());
        let reply = trace.span(self.client, op, pass, || stub.get(&stub_path));
        assert!(
            reply.is_ok_and(|r| r.status == 200 && r.body.len() == body.len()),
            "stub answers a body of the asked size"
        );
    }
}

impl TransportProbes {
    /// Turn the floors into the transport metrics and print the chain they
    /// form: with one serial client a request's floor is the sum of the
    /// layers it blocks on. `via`, `direct` and `hit` are the series of the
    /// op through the gateway, straight to its owner, and straight to its
    /// owner as a guaranteed LRU hit. Returns the unattributed remainder.
    pub fn report(
        &self,
        report: &mut Report,
        trace: &Trace,
        ops: Range<usize>,
        via: SeriesId,
        direct: SeriesId,
        hit: SeriesId,
    ) -> f64 {
        let us = |id| trace.floors(id).median_us();
        let known = [self.client, self.parse, self.cache_get, self.write];
        let mut rest: Vec<i64> = ops
            .clone()
            .filter_map(|op| {
                let probed: u64 = known.iter().filter_map(|&s| trace.floor(s, op)).sum();
                Some(trace.floor(hit, op)? as i64 - probed as i64)
            })
            .collect();
        let unattributed = if rest.is_empty() {
            0.0
        } else {
            median_i64(&mut rest) as f64 / 1e3
        };
        let hop = trace.median_diff_us(ops, via, direct);
        report.metric("serve.http.parse_us", us(self.parse));
        report.metric("serve.http.write_us", us(self.write));
        report.metric("gateway.ring.route_us", us(self.route));
        report.metric("serve.cache.get_us", us(self.cache_get));
        report.metric("harness.client_us", us(self.client));
        report.metric("gateway.hop_us", hop);
        report.metric("serve.server.unattributed_us", unattributed);
        report.note(format!(
            "chain (us, medians of per-op floors): via {:.3} ~ direct {:.3} + gateway.hop {hop:.3}; \
             direct LRU hit {:.3} ~ client {:.3} + parse {:.3} + cache.get {:.3} + write {:.3} \
             + unattributed {unattributed:.3}",
            us(via),
            us(direct),
            us(hit),
            us(self.client),
            us(self.parse),
            us(self.cache_get),
            us(self.write),
        ));
        unattributed
    }
}

/// The store path of a request that misses the LRU: `Store::get`,
/// `read_profile`, and the view's renderer. `roofline` and `dominant` render
/// through private functions of `serve::routes`; they have no outside probe
/// and their render time stays in the unattributed remainder.
pub struct StoreProbes {
    pub get: SeriesId,
    pub decode: SeriesId,
    pub render: SeriesId,
}

impl StoreProbes {
    pub fn new(trace: &mut Trace, parent: &'static str) -> Self {
        Self {
            get: trace.series("store.get", parent),
            decode: trace.series("profiler.decode", parent),
            render: trace.series("profiler.render", parent),
        }
    }

    /// Probe one op against `store`, which holds the op's record under
    /// `triple.key()`. Returns the rendered body for the views it renders.
    pub fn run(
        &self,
        trace: &mut Trace,
        store: &Store,
        op: usize,
        pass: u32,
        triple: &Triple,
        view: &str,
    ) -> Option<String> {
        let record = trace.span(self.get, op, pass, || store.get(&triple.key()));
        let record = record
            .ok()
            .flatten()
            .expect("probe store holds the op's record");
        let text = String::from_utf8(record.value).expect("profile records are UTF-8");
        let profile = trace
            .span(self.decode, op, pass, || profile_store::read_profile(&text))
            .expect("stored profile parses");
        render_view(
            trace,
            self.render,
            op,
            pass,
            view,
            &triple.workload,
            &profile,
        )
    }
}

/// Render `view` of `profile` under a span, for the two views whose renderer
/// is public.
pub fn render_view(
    trace: &mut Trace,
    series: SeriesId,
    op: usize,
    pass: u32,
    view: &str,
    workload: &str,
    profile: &Profile,
) -> Option<String> {
    match view {
        "profile" => Some(trace.span(series, op, pass, || profile_store::write_profile(profile))),
        "kernels" => Some(trace.span(series, op, pass, || csv::to_csv(workload, profile))),
        _ => None,
    }
}

/// Open a store on each directory under one span: what `Server::start` pays
/// before it can answer (recovery scan and index rebuild).
///
/// # Panics
///
/// When a fixture directory does not open.
pub fn open_stores(dirs: &[impl AsRef<Path>]) -> (Vec<Store>, u64) {
    let (stores, _, ns) = timed(|| {
        dirs.iter()
            .map(|d| Store::open(d.as_ref()).expect("fixture store opens"))
            .collect()
    });
    (stores, ns)
}

/// The simulation split into what the architecture treats as one step: host
/// derivation (the physics that decides which kernels launch) and device
/// model evaluation (replaying the captured descriptor stream).
pub struct SimProbes {
    /// Descriptor stream per op, captured on first use.
    captured: Vec<Option<Vec<KernelDesc>>>,
    pub native: SeriesId,
    pub replay: SeriesId,
    pub replay_nomemo: SeriesId,
    pub from_records: SeriesId,
    pub render: SeriesId,
    pub append: SeriesId,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub record_bytes: u64,
    pub records: u64,
}

impl SimProbes {
    pub fn new(trace: &mut Trace, ops: usize, parent: &'static str) -> Self {
        Self {
            captured: vec![None; ops],
            native: trace.series("sim.native", parent),
            replay: trace.series("gpu.model_eval", parent),
            replay_nomemo: trace.series("gpu.model_eval_nomemo", parent),
            from_records: trace.series("profiler.from_records", parent),
            render: trace.series("profiler.render", parent),
            append: trace.series("store.append", parent),
            memo_hits: 0,
            memo_misses: 0,
            record_bytes: 0,
            records: 0,
        }
    }

    /// Probe one triple. `native` also times the whole workload on a fresh
    /// engine (passes that already time it natively skip that). The record
    /// goes into `scratch`, whose appends are the `store.append` span.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        trace: &mut Trace,
        scratch: &Store,
        op: usize,
        pass: u32,
        triple: &Triple,
        view: &str,
        native: bool,
    ) {
        if native {
            let mut gpu = fresh_gpu(triple.device);
            trace.span(self.native, op, pass, || run_native(triple, &mut gpu));
        }
        let descs = self.captured[op].get_or_insert_with(|| {
            let mut gpu = fresh_gpu(triple.device);
            gpu.enable_desc_log();
            run_native(triple, &mut gpu);
            gpu.take_desc_log()
        });

        let mut gpu = fresh_gpu(triple.device);
        trace.span(self.replay, op, pass, || {
            for d in descs.iter() {
                gpu.launch(d);
            }
        });
        self.memo_hits += gpu.memo_hits();
        self.memo_misses += gpu.memo_misses();

        let mut cold = fresh_gpu(triple.device);
        cold.set_memoization(false);
        trace.span(self.replay_nomemo, op, pass, || {
            for d in descs.iter() {
                cold.launch(d);
            }
        });

        let profile = trace.span(self.from_records, op, pass, || {
            Profile::from_records(gpu.records())
        });
        let _ = render_view(
            trace,
            self.render,
            op,
            pass,
            view,
            &triple.workload,
            &profile,
        );
        let text = profile_store::write_profile(&profile);
        let appended = trace.span(self.append, op, pass, || {
            scratch.append(&triple.key(), cactus_gpu::MODEL_VERSION, text.as_bytes())
        });
        assert!(appended.is_ok(), "scratch store accepts the record");
        self.record_bytes += text.len() as u64;
        self.records += 1;
    }
}

/// The WIR submit path's pieces on one definition: parse, the six-pass
/// check, and the interpreter on a fresh engine.
pub struct WirProbes {
    pub parse: SeriesId,
    pub check: SeriesId,
    pub exec: SeriesId,
}

impl WirProbes {
    pub fn new(trace: &mut Trace, parent: &'static str) -> Self {
        Self {
            parse: trace.series("wir.parse", parent),
            check: trace.series("wir.check", parent),
            exec: trace.series("wir.exec", parent),
        }
    }

    /// What a `POST /v1/workloads` pays per tier before anything is stored.
    ///
    /// # Panics
    ///
    /// On a definition that does not validate: only shipped ones are probed.
    pub fn validate(
        &self,
        trace: &mut Trace,
        op: usize,
        pass: u32,
        source: &str,
    ) -> cactus_wir::WorkloadDef {
        let def = trace
            .span(self.parse, op, pass, || cactus_wir::parse(source))
            .expect("shipped definition parses");
        let findings = trace.span(self.check, op, pass, || cactus_wir::check(&def));
        assert!(findings.is_empty(), "shipped definition checks clean");
        def
    }

    /// Interpret `def` on `gpu`; returns the span's `(start_ns, dur_ns)`.
    pub fn exec(
        &self,
        trace: &mut Trace,
        op: usize,
        pass: u32,
        def: &cactus_wir::WorkloadDef,
        scale: SuiteScale,
        gpu: &mut Gpu,
    ) -> (u64, u64) {
        let (launched, start, dur) = timed(|| cactus_wir::run(def, Some(scale_slug(scale)), gpu));
        assert!(launched.is_ok(), "shipped definition executes");
        trace.record(self.exec, op, pass, start, dur);
        (start, dur)
    }
}

/// One `Tracer::ctx().child()` + drop, in ns: what every span the program
/// records costs it. Best of `rounds` batches.
#[must_use]
pub fn span_cost_ns(rounds: usize) -> f64 {
    const BATCH: u32 = 256;
    let tracer = Tracer::new(2048);
    let id = TraceId::mint();
    (0..rounds)
        .map(|_| {
            let ((), _, ns) = timed(|| {
                for _ in 0..BATCH {
                    drop(std::hint::black_box(tracer.ctx(id).child("serve.cache")));
                }
            });
            ns as f64 / f64::from(BATCH)
        })
        .fold(f64::MAX, f64::min)
}
