//! URL routing and response rendering for the versioned `/v1` surface.
//!
//! Every endpoint lives under `/v1/...`; any other path answers the
//! ordinary `404 unknown route` envelope.
//! Errors are the shared JSON envelope (`{code, message, retryable}`) from
//! [`cactus_obs::ApiError`]. Each profile endpoint resolves its
//! `(device, scale, workload)` triple, consults the response cache under a
//! canonical key, and falls through to `ProfileService::profile` (store,
//! then coalesced simulation) on a miss — recording `serve.cache` /
//! `serve.profile` spans under the caller's ctx as it goes. Bodies are
//! text: the profile endpoint serves the stored document itself — the
//! bit-exact [`cactus_profiler::store`] serialization the service read from
//! or rendered for the store (so the typed client parses it with
//! `read_profile`) — and the rest render CSV from its parse.

use cactus_analysis::roofline::Roofline;
use cactus_obs::{SpanCtx, TraceId, Tracer};
use std::fmt::Write as _;

use cactus_profiler::csv;

use crate::cache::CachedResponse;
use crate::http::{query_param, Request, Response};
use crate::server::ServerState;
use crate::service::{ServableWorkload, Triple, WorkloadRejection, SCALE_SLUGS};
use crate::wire::{self, DeviceEntry};

/// The endpoint family served under
/// `/v1/<endpoint>/<device>/<scale>/<workload>`. `cactus-lint`'s surface
/// rule parses this const to cross-check client paths and tests against
/// the routes actually served — keep it in sync with the dispatch in
/// `route_triple`.
pub const TRIPLE_ENDPOINTS: [&str; 4] = ["profile", "kernels", "roofline", "dominant"];

/// Raw durable-store record routes: `GET` reads the stored record
/// verbatim (no simulation fallthrough), `POST` ingests one — the
/// gateway's repair pushes land here. Listed in every spelling so
/// `cactus-lint`'s surface rule accepts consumer paths built from a joined
/// key, from a triple's parts, or from a submitted workload's name.
pub(crate) const STORE_RECORD_ROUTE: &str = "/v1/store/record/{key}";
/// Triple-shaped spelling of `STORE_RECORD_ROUTE`.
pub const STORE_RECORD_TRIPLE_ROUTE: &str = "/v1/store/record/{device}/{scale}/{workload}";
/// `STORE_RECORD_ROUTE` for a submitted definition's `wir/<name>` key.
pub const STORE_RECORD_WIR_ROUTE: &str = "/v1/store/record/wir/{name}";

/// Content type of CSV bodies.
pub const CSV: &str = "text/csv; charset=utf-8";
/// Content type of plain-text bodies (health, profiles, metrics).
pub const TEXT: &str = "text/plain; charset=utf-8";
/// Content type of JSON bodies (the error envelope, comparison documents).
pub const JSON: &str = "application/json";
/// Content type of `/v1/tracez`'s JSON lines.
pub(crate) const NDJSON: &str = "application/x-ndjson";

/// Route one parsed request to a response. `ctx` is the request's
/// `serve.request` span; handlers hang their sub-spans off it.
#[must_use]
pub(crate) fn respond(state: &ServerState, req: &Request, ctx: SpanCtx<'_>) -> Response {
    let record_key = req.path.strip_prefix("/v1/store/record/");
    let workloads_post = req.method() == "POST" && req.path == "/v1/workloads";
    if req.method() != "GET" && !(req.method() == "POST" && record_key.is_some()) && !workloads_post
    {
        return Response::error(
            405,
            format!(
                "method {} not allowed; use GET (POST is accepted only on /v1/workloads and \
                 {STORE_RECORD_ROUTE})",
                req.method()
            ),
        );
    }
    if let Some(key) = record_key {
        return store_record(state, req, key, ctx);
    }
    if workloads_post {
        return submit_workload(state, req, ctx);
    }
    match req.path.as_str() {
        "/v1/healthz" => Response::ok(wire::healthz_body(&state.service.modeled()), TEXT),
        "/v1/metricsz" => Response::ok(state.render_metrics(), TEXT),
        "/v1/tracez" => tracez(&state.tracer, req.query()),
        // Only the triple views are cached, under keys that name immutable
        // content; these pages are rendered per request. `/v1/workloads`
        // changes whenever a POST or a repair push admits a definition,
        // similarity queries may grow the index, and appends and
        // compaction move the store pages.
        "/v1/devices" => Response::ok(devices_catalog(state), CSV),
        "/v1/workloads" => Response::ok(workloads_catalog(state), CSV),
        "/v1/similar" => crate::similar::similar(state, req, ctx),
        "/v1/similar/stats" => crate::similar::stats(state),
        "/v1/store/manifest" => Response::ok(
            cactus_store::write_manifest(&state.service.store().entries()),
            TEXT,
        ),
        "/v1/store/statz" => Response::ok(store_statz(state), TEXT),
        _ => route_triple(state, req, ctx),
    }
}

/// `GET`/`POST /v1/store/record/<key>`: the raw durable-store surface the
/// gateway's repair pass uses, for both key shapes the store holds —
/// `<device>/<scale>/<workload>` profiles and `wir/<name>` definitions.
///
/// `GET` answers the stored record verbatim whatever its version (repair
/// copies bytes; relevance is the *receiver's* concern) and never falls
/// through to simulation. A submitted workload's profiles are stored under
/// its definition's digest (`<device>/<scale>/<name>@<digest>`): a bare
/// `<device>/<scale>/<name>` whose `<name>` is registered reads the current
/// definition's key, never a record an older binary stored under the bare
/// name. `POST` ingests through
/// `ProfileService::ingest_record`: a canonical profile document at the
/// key device's current
/// [`record_version`](cactus_gpu::catalog::CatalogEntry::record_version),
/// or a definition admitted as `POST /v1/workloads` admits it.
fn store_record(state: &ServerState, req: &Request, key: &str, ctx: SpanCtx<'_>) -> Response {
    let segments: Vec<&str> = key.split('/').collect();
    let shaped = match segments.as_slice() {
        ["wir", name] => !name.is_empty(),
        [_, _, _] => segments.iter().all(|s| !s.is_empty()),
        _ => false,
    };
    if !shaped {
        return Response::error(
            404,
            "store record keys have the shape <device>/<scale>/<workload> or wir/<name>",
        );
    }
    if req.method() == "POST" {
        let mut span = ctx.child("store.sync");
        span.tag("key", key.to_owned());
        span.tag("bytes", req.body.len());
        return match state.service.ingest_record(key, &req.body) {
            Ok(()) => Response::ok("stored\n", TEXT),
            Err(msg) => {
                span.tag("error", msg.clone());
                Response::error(400, format!("record rejected: {msg}"))
            }
        };
    }
    let current = match segments.as_slice() {
        [device, scale, name] => state
            .service
            .resolve_triple(device, scale, name)
            .ok()
            .filter(|t| matches!(t.workload, ServableWorkload::Wir(_)))
            .map(|t| t.key()),
        _ => None,
    };
    let key = current.as_deref().unwrap_or(key);
    let mut span = ctx.child("store.get");
    span.tag("key", key.to_owned());
    match state.service.store().get(key) {
        Ok(Some(record)) => {
            span.tag("version", record.version);
            match String::from_utf8(record.value) {
                Ok(body) => Response::ok(body, TEXT),
                Err(_) => Response::error(500, "stored record is not UTF-8"),
            }
        }
        Ok(None) => Response::error(404, format!("no stored record for {key:?}")),
        Err(e) => {
            span.tag("error", e.to_string());
            Response::error(500, format!("store read failed: {e}"))
        }
    }
}

/// The response for a refused submission, on both tiers: `422` with the
/// shared error envelope extended by a `findings` array whose entries
/// mirror `cactus-wir-check --format json`, `400` for a built-in name
/// conflict, `500` for a store failure. Public so the gateway's edge
/// pre-validation answers byte-identically to a backend's rejection.
#[must_use]
pub fn workload_rejection(rejection: &WorkloadRejection) -> Response {
    let findings = match rejection {
        WorkloadRejection::Invalid(findings) => findings,
        WorkloadRejection::Conflict(msg) => return Response::error(400, msg.clone()),
        WorkloadRejection::Store(msg) => return Response::error(500, msg.clone()),
    };
    let mut body = format!(
        "{{\"code\":422,\"message\":\"workload definition rejected: {} finding(s)\",\
         \"retryable\":false,\"findings\":[",
        findings.len()
    );
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&f.to_json());
    }
    body.push_str("]}");
    Response {
        status: 422,
        ..Response::ok(body, JSON)
    }
}

/// `POST /v1/workloads`: submit one `cactus-wir` definition. The body is
/// the definition source; it passes the whole admission stack before
/// anything durable happens. A rejection answers [`workload_rejection`];
/// acceptance persists the source and admits the workload into the triple
/// routes. A re-submission under the same name replaces the definition;
/// every key of its triples carries the new text's digest, so nothing
/// cached or stored for the old definition is read again.
fn submit_workload(state: &ServerState, req: &Request, ctx: SpanCtx<'_>) -> Response {
    let mut span = ctx.child("serve.workload");
    span.tag("bytes", req.body.len());
    match state.service.register_wir(&req.body, Some(span.ctx())) {
        Ok((name, replaced)) => {
            span.tag("workload", name.clone());
            span.tag("replaced", replaced);
            Response::ok(
                format!(
                    "{} workload {name:?}; profiles at /v1/profile/<device>/<scale>/{name}\n",
                    if replaced { "replaced" } else { "registered" },
                ),
                TEXT,
            )
        }
        Err(rejection) => {
            match &rejection {
                WorkloadRejection::Invalid(findings) => span.tag("findings", findings.len()),
                WorkloadRejection::Conflict(msg) | WorkloadRejection::Store(msg) => {
                    span.tag("error", msg.clone());
                }
            }
            workload_rejection(&rejection)
        }
    }
}

/// `/v1/store/statz`: one plain-text page of storage-engine state.
fn store_statz(state: &ServerState) -> String {
    let store = state.service.store();
    let s = store.stats();
    format!(
        "cactus-store statz\n\
         dir {}\n\
         digest {:016x}\n\
         segments {}\n\
         live_records {}\n\
         dead_records {}\n\
         live_bytes {}\n\
         dead_bytes {}\n\
         appends {}\n\
         gets {}\n\
         compactions {}\n\
         truncations {}\n",
        store.dir().display(),
        cactus_store::manifest_digest(&store.entries()),
        s.segments,
        s.live_records,
        s.dead_records,
        s.live_bytes,
        s.dead_bytes,
        s.appends,
        s.gets,
        s.compactions,
        s.truncations,
    )
}

/// `/v1/tracez[?trace=ID]`: `tracer`'s span ring as JSON lines, optionally
/// filtered to one trace id. Both tiers' route tables answer with this.
#[must_use]
pub fn tracez(tracer: &Tracer, query: Option<&str>) -> Response {
    let wanted = query.and_then(|q| q.split('&').find_map(|pair| pair.strip_prefix("trace=")));
    let filter = match wanted.map(|v| TraceId::parse(v).ok_or(v)).transpose() {
        Ok(filter) => filter,
        Err(bad) => {
            return Response::error(
                400,
                format!("invalid trace id {bad:?}; expected 16 hex digits"),
            )
        }
    };
    Response::ok(tracer.render(filter), NDJSON)
}

/// The `/v1/<endpoint>/<device>/<scale>/<workload>` family.
fn route_triple(state: &ServerState, req: &Request, ctx: SpanCtx<'_>) -> Response {
    // Six slots tell the five-segment shape from a longer path.
    let mut segments = req.path.trim_matches('/').split('/');
    let segments: [Option<&str>; 6] = std::array::from_fn(|_| segments.next());
    let (endpoint, device, scale, workload) = match segments {
        [Some("v1"), Some(endpoint), Some(device), Some(scale), Some(workload), None] => {
            (endpoint, device, scale, workload)
        }
        _ => {
            return Response::error(
                404,
                "unknown route; try /v1/healthz, /v1/metricsz, /v1/tracez, /v1/devices, \
                 /v1/workloads (GET catalog, POST a cactus-wir definition), /v1/similar, \
                 /v1/similar/stats, /v1/store/manifest, /v1/store/statz, \
                 /v1/store/record/{<device>/<scale>/<workload>|wir/<name>}, or \
                 /v1/{profile|kernels|roofline|dominant}/<device>/<scale>/<workload>",
            )
        }
    };
    if !TRIPLE_ENDPOINTS.contains(&endpoint) {
        return Response::error(
            404,
            format!(
                "unknown endpoint {endpoint:?}; expected profile, kernels, roofline, or dominant"
            ),
        );
    }
    let triple = match state.service.modeled_triple(device, scale, workload) {
        Ok(t) => t,
        Err(msg) => return Response::error(404, msg),
    };

    // The dominance threshold is the one endpoint parameter; the key carries
    // it exactly (`Display` is the shortest string that reads back as the
    // same `f64`, so `0.70` and `0.7` share an entry), because thresholds
    // that agree to any fixed number of decimals can select different sets.
    let threshold = match threshold_from_query(req.query()) {
        Ok(t) => t,
        Err(msg) => return Response::error(400, msg),
    };
    // The one string a hit builds: `<endpoint>/` and the triple's key.
    let mut key = String::with_capacity(64);
    key.push_str(endpoint);
    key.push('/');
    triple.push_key(&mut key);
    if endpoint == "dominant" {
        let _ = write!(key, "?t={threshold}");
    }

    let cache_hit = {
        let mut span = ctx.child("serve.cache");
        let hit = state.cache.get(&key);
        // A hit needs the key no more: the span takes it.
        let tagged = if hit.is_some() {
            std::mem::take(&mut key)
        } else {
            key.clone()
        };
        span.tag("key", tagged);
        span.tag("hit", hit.is_some());
        hit
    };
    if let Some(hit) = cache_hit {
        return hit.to_response();
    }
    let mut span = ctx.child("serve.profile");
    let outcome = state.service.profile(&triple, Some(span.ctx()));
    let (resolved, source) = match outcome {
        Ok(p) => p,
        Err(msg) => {
            span.tag("source", "error");
            return Response::error(500, format!("simulation failed: {msg}"));
        }
    };
    span.tag("source", source.label());
    drop(span);

    let profile = &resolved.profile;
    let (body, content_type) = match endpoint {
        // The stored document as it is: the one copy between the store's
        // buffer (shared with coalesced callers) and the cached body.
        "profile" => (resolved.document.clone(), TEXT),
        "kernels" => (csv::to_csv(triple.workload.name(), profile), CSV),
        "roofline" => (roofline_csv(&triple, profile), CSV),
        _ => (
            dominant_csv(triple.workload.name(), profile, threshold),
            CSV,
        ),
    };
    let cached_value = state.cache.put(&key, CachedResponse { content_type, body });
    cached_value.to_response()
}

fn threshold_from_query(query: Option<&str>) -> Result<f64, String> {
    let Some(value) = query_param(query, "threshold") else {
        return Ok(0.7);
    };
    match value.parse::<f64>() {
        Ok(t) if (0.0..=1.0).contains(&t) => Ok(t),
        _ => Err(format!(
            "threshold must be a number in [0, 1], got {value:?}"
        )),
    }
}

/// `/v1/devices`: the full device catalog with per-device roofline
/// ceilings, flagged with whether *this* backend models each entry.
fn devices_catalog(state: &ServerState) -> String {
    let mut out = String::new();
    wire::write_devices(
        &mut out,
        &DeviceEntry::catalog(|id| state.service.models(id)),
    );
    out
}

/// The catalog: every servable workload plus the device and scale slugs.
fn workloads_catalog(state: &ServerState) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# devices: {}\n",
        state.service.modeled().join(" ")
    ));
    out.push_str(&format!("# scales: {}\n", SCALE_SLUGS.join(" ")));
    out.push_str("suite,workload\n");
    for w in cactus_core::suite() {
        out.push_str(&format!("Cactus,{}\n", w.abbr));
    }
    for b in cactus_suites::all() {
        out.push_str(&format!("{},{}\n", b.suite.name(), b.name));
    }
    for name in state.service.wir_names() {
        out.push_str("WIR,");
        csv::push_field(&mut out, &name);
        out.push('\n');
    }
    out
}

/// Per-kernel roofline coordinates and classifications on the requested
/// device's roofline.
fn roofline_csv(triple: &Triple, profile: &cactus_profiler::Profile) -> String {
    let roofline = Roofline::for_device(&triple.device());
    let total = profile.total_time_s();
    let mut out =
        String::from("kernel,instruction_intensity,gips,time_share,intensity_class,boundedness\n");
    for k in profile.kernels() {
        csv::push_field(&mut out, &k.name);
        for x in [
            k.metrics.instruction_intensity,
            k.metrics.gips,
            k.time_share(total),
        ] {
            out.push(',');
            csv::push_fixed6(&mut out, x);
        }
        let _ = writeln!(
            out,
            ",{},{}",
            roofline
                .intensity_class(k.metrics.instruction_intensity)
                .label(),
            roofline.boundedness_class(k.metrics.gips).label(),
        );
    }
    out
}

/// The dominant-kernel report: the smallest top-ranked set covering
/// `threshold` of GPU time.
fn dominant_csv(workload: &str, profile: &cactus_profiler::Profile, threshold: f64) -> String {
    let total = profile.total_time_s();
    let mut out =
        String::from("workload,kernel,invocations,total_time_s,time_share,cumulative_share\n");
    let mut cumulative = 0.0;
    for k in profile.dominant_kernels(threshold) {
        cumulative += k.time_share(total);
        csv::push_field(&mut out, workload);
        out.push(',');
        csv::push_field(&mut out, &k.name);
        let _ = write!(out, ",{},", k.invocations);
        csv::push_exp(&mut out, k.total_time_s);
        for x in [k.time_share(total), cumulative] {
            out.push(',');
            csv::push_fixed6(&mut out, x);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_gpu::metrics::KernelMetrics;
    use cactus_profiler::{KernelStats, Profile};
    use proptest::prelude::*;

    // The two private renderers as they were — one `format!` per row, one
    // `String` per escaped field — kept as the oracles the single-buffer
    // versions must match byte for byte.

    fn escape_oracle(s: &str) -> String {
        if s.contains([',', '"', '\n']) {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_owned()
        }
    }

    fn roofline_oracle(triple: &Triple, profile: &Profile) -> String {
        let roofline = Roofline::for_device(&triple.device());
        let total = profile.total_time_s();
        let mut out = String::from(
            "kernel,instruction_intensity,gips,time_share,intensity_class,boundedness\n",
        );
        for k in profile.kernels() {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{},{}\n",
                escape_oracle(&k.name),
                k.metrics.instruction_intensity,
                k.metrics.gips,
                k.time_share(total),
                roofline
                    .intensity_class(k.metrics.instruction_intensity)
                    .label(),
                roofline.boundedness_class(k.metrics.gips).label(),
            ));
        }
        out
    }

    fn dominant_oracle(workload: &str, profile: &Profile, threshold: f64) -> String {
        let total = profile.total_time_s();
        let mut out =
            String::from("workload,kernel,invocations,total_time_s,time_share,cumulative_share\n");
        let mut cumulative = 0.0;
        for k in profile.dominant_kernels(threshold) {
            cumulative += k.time_share(total);
            out.push_str(&format!(
                "{},{},{},{:e},{:.6},{:.6}\n",
                escape_oracle(workload),
                escape_oracle(&k.name),
                k.invocations,
                k.total_time_s,
                k.time_share(total),
                cumulative,
            ));
        }
        out
    }

    fn any_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u64..u64::MAX).prop_map(f64::from_bits),
            0.0f64..1e6,
            proptest::sample::select(&[
                f64::NAN,
                f64::from_bits(0x7ff8_0000_dead_beef),
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                f64::from_bits(1),
            ]),
        ]
    }

    fn any_name() -> impl Strategy<Value = String> {
        let alphabet = ['a', 'Z', '_', ' ', '\t', '\n', '\\', ',', '"', 'é'];
        prop::collection::vec(proptest::sample::select(&alphabet), 0..10)
            .prop_map(|chars| chars.into_iter().collect())
    }

    fn any_kernel() -> impl Strategy<Value = KernelStats> {
        (
            any_name(),
            prop_oneof![0u64..1000, proptest::sample::select(&[0, u64::MAX])],
            any_f64(),
            any_f64(),
            any_f64(),
        )
            .prop_map(|(name, invocations, time, intensity, gips)| KernelStats {
                name,
                invocations,
                total_time_s: time,
                warp_instructions: invocations,
                dram_transactions: time,
                metrics: KernelMetrics {
                    instruction_intensity: intensity,
                    gips,
                    ..KernelMetrics::default()
                },
            })
    }

    /// The kernels view with one `format!` per float: `{:e}` for times,
    /// transactions and metrics, `{:.6}` for the time share.
    fn kernels_oracle(workload: &str, profile: &Profile) -> String {
        let total = profile.total_time_s();
        let mut out = format!("{}\n", csv::kernel_header());
        for k in profile.kernels() {
            out.push_str(&format!(
                "{},{},{},{:e},{:.6},{},{:e}",
                escape_oracle(workload),
                escape_oracle(&k.name),
                k.invocations,
                k.total_time_s,
                k.time_share(total),
                k.warp_instructions,
                k.dram_transactions,
            ));
            for id in cactus_gpu::metrics::MetricId::ALL {
                out.push_str(&format!(",{:e}", k.metrics.get(id)));
            }
            out.push('\n');
        }
        out
    }

    /// Every float of the three CSV views of the 42 built-in workloads on
    /// all six catalog devices at `tiny` — the values the fleet serves —
    /// against `format!`.
    #[test]
    fn every_view_of_the_tiny_corpus_matches_format() {
        let scale = cactus_core::SuiteScale::Tiny;
        for entry in cactus_gpu::CATALOG {
            let mut runs: Vec<(String, Profile)> = Vec::new();
            for w in cactus_core::suite() {
                let mut gpu = cactus_gpu::prelude::Gpu::new(entry.device());
                w.run(&mut gpu, scale);
                runs.push((w.abbr.to_owned(), Profile::from_records(gpu.records())));
            }
            for b in cactus_suites::all() {
                let mut gpu = cactus_gpu::prelude::Gpu::new(entry.device());
                b.run(&mut gpu, cactus_suites::Scale::Tiny);
                runs.push((b.name.to_owned(), Profile::from_records(gpu.records())));
            }
            assert_eq!(runs.len(), 42);
            for (name, profile) in &runs {
                let triple = Triple::resolve(entry.id, "tiny", name).expect("resolve");
                let at = format!("{}/tiny/{name}", entry.id);
                assert_eq!(
                    csv::to_csv(name, profile),
                    kernels_oracle(name, profile),
                    "{at} kernels"
                );
                assert_eq!(
                    roofline_csv(&triple, profile),
                    roofline_oracle(&triple, profile),
                    "{at} roofline"
                );
                for threshold in [0.7, 1.0] {
                    assert_eq!(
                        dominant_csv(name, profile, threshold),
                        dominant_oracle(name, profile, threshold),
                        "{at} dominant {threshold}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn roofline_and_dominant_match_their_oracles(
            kernels in prop::collection::vec(any_kernel(), 0..6),
            workload in any_name(),
            threshold in 0.0f64..1.0,
        ) {
            let profile = Profile::from_kernel_stats(kernels);
            let triple = Triple::resolve("rtx-3080", "tiny", "GMS").expect("resolve");
            prop_assert_eq!(roofline_csv(&triple, &profile), roofline_oracle(&triple, &profile));
            prop_assert_eq!(
                dominant_csv(&workload, &profile, threshold),
                dominant_oracle(&workload, &profile, threshold)
            );
        }
    }
}
