//! Cross-device comparison: `GET /v1/compare/<scale>/<workload>?devices=a,b`.
//!
//! The gateway fans one profile fetch per requested device out to the
//! owning backends in parallel (each leg goes through the full
//! device-aware `Router::forward` machinery — capability filtering,
//! failover, hedging — and feeds replication exactly like a direct client
//! request), then synthesizes one cross-device table:
//!
//! * per-kernel roofline placement on every device (intensity class and
//!   boundedness, computed against each device's own roofline);
//! * whole-workload speedup ratios against the first requested device;
//! * **bottleneck shifts** — kernels whose boundedness class differs
//!   between devices, i.e. where moving hardware moves the wall.
//!
//! Rendered as JSON (default) or CSV (`format=csv`). The CSV's per-kernel
//! columns are formatted by the same `{:.6}` rules as a single backend's
//! `/v1/roofline` rows, so a device's slice of the comparison is
//! byte-identical to asking that backend directly — the comparison adds
//! information, it never re-derives it.
//!
//! Failure semantics: any leg that does not answer `200` fails the whole
//! comparison, and the first failing leg's response (in requested device
//! order) is returned verbatim — so an unknown workload surfaces the
//! backend's own `404` envelope, and a fleet that models neither device
//! surfaces the router's synthesized `404`.

use std::sync::Arc;

use cactus_analysis::roofline::Roofline;
use cactus_gpu::by_id;
use cactus_gpu::catalog::CatalogEntry;
use cactus_obs::api::json_escape;
use cactus_obs::SpanCtx;
use cactus_profiler::{store as profile_store, Profile};
use cactus_serve::http::{Request, Response};
use cactus_serve::routes::{CSV, JSON};
use cactus_serve::wire::{self, CompareRow};
use cactus_serve::DeviceId;

use crate::proxy::Router;
use crate::server::forward_replicated;

/// One device's leg of the comparison.
struct Leg {
    id: DeviceId,
    profile: Profile,
    roofline: Roofline,
}

/// Answer `/v1/compare/<scale>/<workload>`. See the module docs.
pub(crate) fn compare(router: &Arc<Router>, request: &Request, ctx: SpanCtx<'_>) -> Response {
    router.metrics.compare_requests.inc();
    let response = compare_inner(router, request, ctx);
    if response.status != 200 {
        router.metrics.compare_failures.inc();
    }
    response
}

fn compare_inner(router: &Arc<Router>, request: &Request, ctx: SpanCtx<'_>) -> Response {
    let rest = request
        .path
        .strip_prefix("/v1/compare/")
        .unwrap_or_default();
    let segs: Vec<&str> = rest.split('/').filter(|s| !s.is_empty()).collect();
    let [scale, workload] = segs.as_slice() else {
        return Response::error(
            404,
            "compare expects /v1/compare/<scale>/<workload>?devices=a,b",
        );
    };

    let param = |name: &str| {
        request.query()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name && !v.is_empty()).then_some(v)
        })
    };
    let format = param("format").unwrap_or("json");
    if format != "json" && format != "csv" {
        return Response::error(400, format!("unknown format {format:?}; use json or csv"));
    }
    let Some(raw_devices) = param("devices") else {
        return Response::error(400, "compare requires ?devices=<id>,<id>[,...]");
    };

    // Resolve every requested slug against the catalog up front (the same
    // edge check forwarded requests get), de-duplicating while preserving
    // request order — the first device is the speedup baseline.
    let mut ids: Vec<&'static CatalogEntry> = Vec::new();
    for slug in raw_devices.split(',').filter(|s| !s.is_empty()) {
        let Some(entry) = by_id(slug) else {
            let known = cactus_gpu::catalog::device_ids().join(", ");
            return Response::error(
                404,
                format!("unknown device {slug:?}; the catalog has: {known}"),
            );
        };
        if !ids.iter().any(|e| e.id == entry.id) {
            ids.push(entry);
        }
    }
    if ids.len() < 2 {
        return Response::error(400, "compare needs at least two distinct devices");
    }

    let mut span = ctx.child("gateway.compare");
    span.tag("scale", (*scale).to_owned());
    span.tag("workload", (*workload).to_owned());
    span.tag(
        "devices",
        ids.iter().map(|e| e.id).collect::<Vec<_>>().join(","),
    );
    let leg_ctx = span.ctx();

    // One leg per device, raced in parallel. Each leg is an ordinary
    // routed profile fetch: capability filtering keeps it on backends that
    // model the device, and a 200 feeds replication as usual.
    let mut outcomes: Vec<(usize, Response)> = std::thread::scope(|s| {
        let handles: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let id = entry.id;
                let target = format!("/v1/profile/{id}/{scale}/{workload}");
                let router = Arc::clone(router);
                s.spawn(move || {
                    router.metrics.compare_fanout.inc();
                    (i, forward_replicated(&router, &target, Some(id), leg_ctx))
                })
            })
            .collect();
        let mut outcomes: Vec<(usize, Response)> =
            handles.into_iter().filter_map(|h| h.join().ok()).collect();
        outcomes.sort_by_key(|(i, _)| *i);
        outcomes
    });

    // A failed leg fails the comparison; its response explains why.
    if let Some(at) = outcomes.iter().position(|(_, r)| r.status != 200) {
        let (i, bad) = outcomes.swap_remove(at);
        span.tag("failed_device", ids[i].id);
        return bad;
    }

    let mut legs = Vec::with_capacity(ids.len());
    for (i, reply) in &outcomes {
        let entry = ids[*i];
        let Ok(profile) = profile_store::read_profile(&reply.body) else {
            return Response::error(
                502,
                format!(
                    "backend returned an unparseable profile for device {:?}",
                    entry.id
                ),
            );
        };
        legs.push(Leg {
            id: DeviceId::from(entry),
            roofline: Roofline::for_device(&entry.device()),
            profile,
        });
    }

    span.tag("status", "200");
    match format {
        "csv" => Response::ok(render_csv(scale, workload, &legs), CSV),
        _ => Response::ok(render_json(scale, workload, &legs), JSON),
    }
}

/// One row per `(leg, kernel)`, in each leg's own profile order: columns
/// 2–7 are formatted exactly like the backend's /v1/roofline rows, so one
/// device's slice of the table is byte-identical to asking it directly. A
/// kernel is flagged when its boundedness class differs between any two
/// devices that ran it — the comparison's headline signal: the kernel hits
/// a different wall on different hardware.
fn compare_rows(legs: &[Leg]) -> Vec<CompareRow> {
    let mut rows: Vec<CompareRow> = legs
        .iter()
        .flat_map(|leg| {
            let total = leg.profile.total_time_s();
            leg.profile.kernels().iter().map(move |k| CompareRow {
                device: leg.id,
                kernel: k.name.clone(),
                instruction_intensity: k.metrics.instruction_intensity,
                gips: k.metrics.gips,
                time_share: k.time_share(total),
                intensity_class: (leg.roofline)
                    .intensity_class(k.metrics.instruction_intensity)
                    .label()
                    .to_owned(),
                boundedness: leg
                    .roofline
                    .boundedness_class(k.metrics.gips)
                    .label()
                    .to_owned(),
                bottleneck_shift: false,
            })
        })
        .collect();
    let shifted: Vec<bool> = rows
        .iter()
        .map(|r| {
            rows.iter()
                .any(|o| o.kernel == r.kernel && o.boundedness != r.boundedness)
        })
        .collect();
    for (row, shift) in rows.iter_mut().zip(shifted) {
        row.bottleneck_shift = shift;
    }
    rows
}

/// The leg's dominant kernel: largest total time, ties broken by name so
/// the answer is deterministic.
fn dominant(leg: &Leg) -> Option<&cactus_profiler::KernelStats> {
    leg.profile.kernels().iter().min_by(|a, b| {
        b.total_time_s
            .partial_cmp(&a.total_time_s)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    })
}

fn render_csv(scale: &str, workload: &str, legs: &[Leg]) -> String {
    let Some(baseline) = legs.first() else {
        return String::new();
    };
    let baseline_total = baseline.profile.total_time_s();
    let mut out = format!("# compare: {scale}/{workload}\n");
    out.push_str(&format!(
        "# devices: {}\n# baseline: {}\n",
        legs.iter()
            .map(|l| l.id.as_str())
            .collect::<Vec<_>>()
            .join(" "),
        baseline.id
    ));
    for leg in legs {
        let total = leg.profile.total_time_s();
        out.push_str(&format!("# total_time_s {} {:e}\n", leg.id, total));
        out.push_str(&format!(
            "# speedup_vs_baseline {} {:.6}\n",
            leg.id,
            speedup(baseline_total, total)
        ));
        if let Some(name) = dominant(leg).map(|k| wire::comment_text(&k.name)) {
            out.push_str(&format!("# dominant_kernel {} {name}\n", leg.id));
        }
    }
    wire::write_compare(&mut out, &compare_rows(legs));
    out
}

fn render_json(scale: &str, workload: &str, legs: &[Leg]) -> String {
    let Some(baseline) = legs.first() else {
        return "{}".to_owned();
    };
    let baseline_total = baseline.profile.total_time_s();
    let mut out = format!(
        "{{\"scale\":\"{}\",\"workload\":\"{}\",\"baseline\":\"{}\",\"devices\":[",
        json_escape(scale),
        json_escape(workload),
        json_escape(baseline.id.as_str())
    );
    for (i, leg) in legs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let total = leg.profile.total_time_s();
        out.push_str(&format!(
            "{{\"device\":\"{}\",\"total_time_s\":{:e},\"speedup_vs_baseline\":{:.6},\
             \"dominant_kernel\":{}}}",
            json_escape(leg.id.as_str()),
            total,
            speedup(baseline_total, total),
            dominant(leg).map_or_else(
                || "null".to_owned(),
                |k| format!("\"{}\"", json_escape(&k.name))
            ),
        ));
    }
    out.push_str("],\"kernels\":[");
    // Kernels in order of first appearance: the baseline's profile order,
    // then any kernel the baseline lacks, in the order other devices list
    // it; each with its rows in device order.
    let rows = compare_rows(legs);
    let mut kernels: Vec<&str> = Vec::new();
    for r in &rows {
        if !kernels.contains(&r.kernel.as_str()) {
            kernels.push(&r.kernel);
        }
    }
    for (ki, kernel) in kernels.into_iter().enumerate() {
        if ki > 0 {
            out.push(',');
        }
        let per_device: Vec<&CompareRow> = rows.iter().filter(|r| r.kernel == kernel).collect();
        out.push_str(&format!(
            "{{\"kernel\":\"{}\",\"bottleneck_shift\":{},\"per_device\":[",
            json_escape(kernel),
            per_device.first().is_some_and(|r| r.bottleneck_shift)
        ));
        for (i, r) in per_device.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"device\":\"{}\",\"instruction_intensity\":{:.6},\"gips\":{:.6},\
                 \"time_share\":{:.6},\"intensity_class\":\"{}\",\"boundedness\":\"{}\"}}",
                json_escape(r.device.as_str()),
                r.instruction_intensity,
                r.gips,
                r.time_share,
                json_escape(&r.intensity_class),
                json_escape(&r.boundedness),
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Whole-workload speedup of `total` relative to `baseline` (>1 = faster
/// than the baseline device).
fn speedup(baseline: f64, total: f64) -> f64 {
    if total > 0.0 {
        baseline / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leg(id: &'static str, workload: &str) -> Leg {
        let entry = by_id(id).expect("catalog id");
        Leg {
            id: DeviceId::from(entry),
            roofline: Roofline::for_device(&entry.device()),
            profile: cactus_core::run(workload, cactus_core::SuiteScale::Tiny),
        }
    }

    #[test]
    fn csv_rows_mirror_the_roofline_format() {
        let legs = [leg("rtx-3080", "GMS"), leg("uhd-630", "GMS")];
        let body = render_csv("tiny", "GMS", &legs);
        assert!(body.starts_with("# compare: tiny/GMS\n"));
        assert!(body.contains("# baseline: rtx-3080\n"));
        assert!(body.contains("# speedup_vs_baseline rtx-3080 1.000000\n"));
        let header = body
            .lines()
            .find(|l| !l.starts_with('#'))
            .expect("header line");
        assert_eq!(
            header,
            "device,kernel,instruction_intensity,gips,time_share,intensity_class,\
             boundedness,bottleneck_shift"
        );
        // Every kernel of every device appears exactly once, and reads back.
        let rows = wire::read_compare(&body).expect("the typed reader reads it");
        let kernels = legs[0].profile.kernels().len() + legs[1].profile.kernels().len();
        assert_eq!(rows.len(), kernels);
    }

    #[test]
    fn json_carries_speedups_and_shifts() {
        let legs = [leg("rtx-3080", "GMS"), leg("uhd-630", "GMS")];
        let body = render_json("tiny", "GMS", &legs);
        assert!(body.starts_with("{\"scale\":\"tiny\",\"workload\":\"GMS\""));
        assert!(body.contains("\"baseline\":\"rtx-3080\""));
        assert!(body.contains("\"speedup_vs_baseline\":1.000000"));
        assert!(body.contains("\"bottleneck_shift\":"));
        assert!(body.ends_with("]}"));
    }

    #[test]
    fn identical_legs_never_shift() {
        let legs = [leg("rtx-3080", "GMS"), leg("rtx-3080", "GMS")];
        for r in compare_rows(&legs) {
            assert!(!r.bottleneck_shift, "{} shifted against itself", r.kernel);
        }
    }

    #[test]
    fn json_strings_escape_specials() {
        let body = render_json("tiny", "a\"b\\c\n", &[leg("rtx-3080", "GMS")]);
        assert!(
            body.starts_with(
                "{\"scale\":\"tiny\",\"workload\":\"a\\\"b\\\\c\\n\",\"baseline\":\"rtx-3080\","
            ),
            "{body}"
        );
    }
}
