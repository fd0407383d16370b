//! URL routing and response rendering for the versioned `/v1` surface.
//!
//! Every endpoint lives under `/v1/...`; any other path answers the
//! ordinary `404 unknown route` envelope.
//! Errors are the shared JSON envelope (`{code, message, retryable}`) from
//! [`cactus_obs::ApiError`]. Each profile endpoint resolves its
//! `(device, scale, workload)` triple, consults the response cache under a
//! canonical key, and falls through to [`ProfileService::profile`] (store,
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
use crate::http::{Request, Response};
use crate::server::ServerState;
use crate::service::{Triple, WorkloadRejection, SCALE_SLUGS};
use crate::wire::{self, DeviceEntry};

/// The endpoint family served under
/// `/v1/<endpoint>/<device>/<scale>/<workload>`. `cactus-lint`'s surface
/// rule parses this const to cross-check client paths and tests against
/// the routes actually served — keep it in sync with the dispatch in
/// [`route_triple`].
pub const TRIPLE_ENDPOINTS: [&str; 4] = ["profile", "kernels", "roofline", "dominant"];

/// Raw durable-store record routes: `GET` reads the stored record
/// verbatim (no simulation fallthrough), `POST` ingests one — the
/// gateway's replication and anti-entropy pushes land here. Listed in
/// both spellings so `cactus-lint`'s surface rule accepts consumer paths
/// built from a joined `device/scale/workload` key or from the triple's
/// parts.
pub const STORE_RECORD_ROUTE: &str = "/v1/store/record/{key}";
/// Triple-shaped spelling of [`STORE_RECORD_ROUTE`].
pub const STORE_RECORD_TRIPLE_ROUTE: &str = "/v1/store/record/{device}/{scale}/{workload}";

/// Content type of CSV bodies.
pub const CSV: &str = "text/csv; charset=utf-8";
/// Content type of plain-text bodies (health, profiles, metrics).
pub const TEXT: &str = "text/plain; charset=utf-8";

/// Route one parsed request to a response. `ctx` is the request's
/// `serve.request` span; handlers hang their sub-spans off it.
#[must_use]
pub fn respond(state: &ServerState, req: &Request, ctx: SpanCtx<'_>) -> Response {
    let record_key = req.path.strip_prefix("/v1/store/record/");
    let workloads_post = req.method == "POST" && req.path == "/v1/workloads";
    if req.method != "GET" && !(req.method == "POST" && record_key.is_some()) && !workloads_post {
        return Response::error(
            405,
            format!(
                "method {} not allowed; use GET (POST is accepted only on /v1/workloads and \
                 {STORE_RECORD_ROUTE})",
                req.method
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
        "/v1/tracez" => tracez(&state.tracer, req.query.as_deref()),
        "/v1/devices" => cached(state, "devices", CSV, || devices_catalog(state)),
        "/v1/workloads" => cached(state, "workloads", CSV, || workloads_catalog(state)),
        // Similarity responses are stateful (each query may grow the
        // index), so they bypass the response cache.
        "/v1/similar" => crate::similar::similar(state, req, ctx),
        "/v1/similar/stats" => crate::similar::stats(state),
        // Store pages are stateful (appends and compaction move them),
        // so they bypass the response cache too.
        "/v1/store/manifest" => Response::ok(
            cactus_store::write_manifest(&state.service.store().entries()),
            TEXT,
        ),
        "/v1/store/statz" => Response::ok(store_statz(state), TEXT),
        _ => route_triple(state, req, ctx),
    }
}

/// `GET`/`POST /v1/store/record/<device>/<scale>/<workload>`: the raw
/// durable-store surface used by gateway replication and anti-entropy.
///
/// `GET` answers the stored record verbatim whatever its model version
/// (anti-entropy copies bytes; relevance is the *receiver's* concern) and
/// never falls through to simulation. `POST` validates the body as a
/// canonical profile document and appends it at the key device's current
/// [`record_version`](cactus_gpu::catalog::CatalogEntry::record_version).
fn store_record(state: &ServerState, req: &Request, key: &str, ctx: SpanCtx<'_>) -> Response {
    let segments: Vec<&str> = key.split('/').collect();
    if segments.len() != 3 || segments.iter().any(|s| s.is_empty()) {
        return Response::error(
            404,
            "store record keys have the shape <device>/<scale>/<workload>",
        );
    }
    if req.method == "POST" {
        let mut span = ctx.child("store.sync");
        span.tag("key", key);
        span.tag("bytes", req.body.len().to_string());
        return match state.service.ingest_record(key, &req.body) {
            Ok(()) => Response::ok("stored\n", TEXT),
            Err(msg) => {
                span.tag("error", msg.clone());
                Response::error(400, format!("record rejected: {msg}"))
            }
        };
    }
    let mut span = ctx.child("store.get");
    span.tag("key", key);
    match state.service.store().get(key) {
        Ok(Some(record)) => {
            span.tag("version", record.version.to_string());
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

/// The `422` for a rejected submission: the shared error envelope extended
/// with a `findings` array whose entries mirror `cactus-wir-check --format
/// json`. Public so the gateway's edge pre-validation answers
/// byte-identically to a backend's rejection.
#[must_use]
pub fn workload_rejection(findings: &[cactus_wir::Finding]) -> Response {
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
        ..Response::ok(body, "application/json")
    }
}

/// `POST /v1/workloads`: submit one `cactus-wir` definition. The body is
/// the definition source; it runs the full static validator before
/// anything durable happens. Rejections answer `422` with the findings as
/// JSON (see [`workload_rejection`]); acceptance persists the source,
/// admits the workload into the triple routes, and invalidates the cached
/// `/v1/workloads` listing. A re-submission under the same name replaces
/// the definition, so every cached view of the workload's triples is
/// dropped too (the service supersedes the stored profiles itself).
fn submit_workload(state: &ServerState, req: &Request, ctx: SpanCtx<'_>) -> Response {
    let mut span = ctx.child("serve.workload");
    span.tag("bytes", req.body.len().to_string());
    match state.service.register_wir(&req.body, Some(span.ctx())) {
        Ok((name, replaced)) => {
            span.tag("workload", &name);
            span.tag("replaced", if replaced { "true" } else { "false" });
            state.cache.remove("workloads");
            if replaced {
                // Cached /v1/{profile,kernels,roofline,dominant} bodies for
                // the old definition would otherwise outlive it; `dominant`
                // keys carry a `?t=` suffix, hence the split.
                let suffix = format!("/{name}");
                state.cache.remove_where(|key| {
                    key.split('?')
                        .next()
                        .is_some_and(|path| path.ends_with(suffix.as_str()))
                });
            }
            Response::ok(
                format!(
                    "{} workload {name:?}; profiles at /v1/profile/<device>/<scale>/{name}\n",
                    if replaced { "replaced" } else { "registered" },
                ),
                TEXT,
            )
        }
        Err(WorkloadRejection::Invalid(findings)) => {
            span.tag("findings", findings.len().to_string());
            workload_rejection(&findings)
        }
        Err(WorkloadRejection::Conflict(msg)) => {
            span.tag("error", msg.clone());
            Response::error(400, msg)
        }
        Err(WorkloadRejection::Store(msg)) => {
            span.tag("error", msg.clone());
            Response::error(500, msg)
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
    Response::ok(tracer.render(filter), "application/x-ndjson")
}

/// The `/v1/<endpoint>/<device>/<scale>/<workload>` family.
fn route_triple(state: &ServerState, req: &Request, ctx: SpanCtx<'_>) -> Response {
    let segments: Vec<&str> = req.path.trim_matches('/').split('/').collect();
    let (endpoint, device, scale, workload) = match segments.as_slice() {
        ["v1", endpoint, device, scale, workload] => (*endpoint, *device, *scale, *workload),
        _ => {
            return Response::error(
                404,
                "unknown route; try /v1/healthz, /v1/metricsz, /v1/tracez, /v1/devices, \
                 /v1/workloads (GET catalog, POST a cactus-wir definition), /v1/similar, \
                 /v1/similar/stats, /v1/store/manifest, /v1/store/statz, \
                 /v1/store/record/<device>/<scale>/<workload>, or \
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
    let triple = match state.service.resolve_triple(device, scale, workload) {
        Ok(t) => t,
        Err(msg) => return Response::error(404, msg),
    };
    if !state.service.models(&triple.device_slug) {
        return Response::error(
            404,
            format!(
                "device {:?} is in the catalog but not modeled by this backend; modeled \
                 devices: {} (see /v1/devices)",
                triple.device_slug,
                state.service.modeled().join(", "),
            ),
        );
    }

    // The dominance threshold is the one endpoint parameter; normalize it
    // into the cache key so distinct thresholds cache separately.
    let threshold = match threshold_from_query(req.query.as_deref()) {
        Ok(t) => t,
        Err(msg) => return Response::error(400, msg),
    };
    let key = if endpoint == "dominant" {
        format!("{endpoint}/{}?t={threshold:.3}", triple.key())
    } else {
        format!("{endpoint}/{}", triple.key())
    };

    let cache_hit = {
        let mut span = ctx.child("serve.cache");
        span.tag("key", key.clone());
        let hit = state.cache.get(&key);
        span.tag("hit", if hit.is_some() { "true" } else { "false" });
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

/// Run `render` unless `key` is already cached; cache the result.
fn cached(
    state: &ServerState,
    key: &str,
    content_type: &'static str,
    render: impl FnOnce() -> String,
) -> Response {
    if let Some(hit) = state.cache.get(key) {
        return hit.to_response();
    }
    state
        .cache
        .put(
            key,
            CachedResponse {
                content_type,
                body: render(),
            },
        )
        .to_response()
}

fn threshold_from_query(query: Option<&str>) -> Result<f64, String> {
    let Some(query) = query else { return Ok(0.7) };
    for pair in query.split('&') {
        if let Some(value) = pair.strip_prefix("threshold=") {
            return match value.parse::<f64>() {
                Ok(t) if (0.0..=1.0).contains(&t) => Ok(t),
                _ => Err(format!(
                    "threshold must be a number in [0, 1], got {value:?}"
                )),
            };
        }
    }
    Ok(0.7)
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
    let roofline = Roofline::for_device(&triple.device);
    let total = profile.total_time_s();
    let mut out =
        String::from("kernel,instruction_intensity,gips,time_share,intensity_class,boundedness\n");
    for k in profile.kernels() {
        csv::push_field(&mut out, &k.name);
        let _ = writeln!(
            out,
            ",{:.6},{:.6},{:.6},{},{}",
            k.metrics.instruction_intensity,
            k.metrics.gips,
            k.time_share(total),
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
        let _ = writeln!(
            out,
            ",{},{:e},{:.6},{:.6}",
            k.invocations,
            k.total_time_s,
            k.time_share(total),
            cumulative,
        );
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
        let roofline = Roofline::for_device(&triple.device);
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
