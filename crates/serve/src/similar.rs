//! `/v1/similar`: online kernel-similarity queries over the serving tier.
//!
//! The service keeps one [`cactus_simindex`] stack behind a single
//! [`RankedMutex`] (rank [`rank::SIMINDEX`]): a frozen FAMD [`Encoder`],
//! the pruned-exact [`SimIndex`], and the incremental [`ClusterSet`]. The
//! encoder is **lazily fitted** on the first ingested profile's kernels —
//! until then the index is empty and inline-vector queries are answered
//! `400` with a hint to seed it — and stays frozen afterwards so every
//! later profile and query lands in the same metric space the index
//! stores (the model carries `cactus_gpu::MODEL_VERSION` through its text
//! form).
//!
//! Two query forms:
//!
//! * `?vector=v1,...,v15&k=N` — an inline `MetricId::ALL`-order metric
//!   vector, encoded and searched without touching the profile service;
//! * `?device=&scale=&workload=[&kernel=][&k=N]` — a reference query:
//!   the triple resolves through `ProfileService` (store → coalesced
//!   simulation) *before* the simindex lock is taken (lock order: the
//!   single-flight and store ranks all sit below `SIMINDEX`), the
//!   profile's kernels are idempotently ingested under ids
//!   `device/scale/workload/kernel`, and the named (default: dominant)
//!   kernel is searched.
//!
//! Span tree: `serve.similar` roots the request's similarity work, with
//! `simindex.encode` around ingest/encode, `simindex.search` around the
//! pruned k-NN probe, and a `simindex.recluster` marker when ingest
//! tripped bounded local re-clusters. `/v1/similar/stats` renders the
//! index counters plus the greedy proxy subset as plain text.

use std::fmt::Write as _;

use cactus_analysis::roofline::Roofline;
use cactus_gpu::metrics::KernelMetrics;
use cactus_obs::lock::{rank, RankedMutex};
use cactus_obs::SpanCtx;
use cactus_profiler::Profile;
use cactus_simindex::{proxy, ClusterConfig, ClusterSet, Encoder, IndexStats, SimIndex};

use crate::http::{query_param, Request, Response};
use crate::routes::{CSV, TEXT};
use crate::server::ServerState;
use crate::service::Triple;
use crate::wire::{self, SimilarHit};

/// Neighbors returned when `k` is not given.
const K_DEFAULT: usize = 5;
/// Upper bound on `k` (the index's `Best` set is tuned for small k).
const K_MAX: usize = 50;

/// Coverage budget for the stats page's proxy subset: one principal
/// standard deviation, the same scale the cluster spawn radius uses.
const PROXY_BUDGET: f64 = 1.0;

/// The per-server similarity service: everything mutable sits behind one
/// ranked lock so worker threads ingest and query without tearing the
/// index/cluster pair apart.
pub(crate) struct SimService {
    state: RankedMutex<SimState>,
}

/// `None` until the first profile is ingested and the encoder is fitted.
struct SimState {
    fitted: Option<Fitted>,
}

struct Fitted {
    encoder: Encoder,
    /// Device slug whose roofline labelled the fit corpus (frozen with
    /// the model).
    device_slug: String,
    index: SimIndex,
    clusters: ClusterSet,
}

/// Scrape-time counters mirrored into registry gauges (all zero until
/// the encoder is fitted).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SimSnapshot {
    /// Index counters (size, cells, probes, ...).
    pub index: IndexStats,
    /// Online clusters.
    pub clusters: usize,
    /// Bounded local re-cluster passes.
    pub reclusters: u64,
}

/// One answered similarity query.
struct SimilarReport {
    query: String,
    k: usize,
    hits: Vec<SimilarHit>,
    probed: usize,
    pruned: usize,
    size: usize,
    cells: usize,
    clusters: usize,
}

/// Why a similarity query failed, mapped onto HTTP statuses.
enum SimError {
    /// Nothing ingested yet; inline vectors have no space to land in.
    Empty,
    /// Malformed inline vector.
    BadVector(String),
    /// The reference profile has no kernel by that name.
    UnknownKernel { key: String, kernel: String },
    /// Invariant breakage (dimension drift between encoder and index).
    Internal(String),
}

impl SimError {
    fn into_response(self) -> Response {
        match self {
            SimError::Empty => Response::error(
                400,
                "similarity index is empty; seed it with a reference query \
                 (GET /v1/similar?device=<d>&scale=<s>&workload=<w>) first",
            ),
            SimError::BadVector(msg) => Response::error(400, msg),
            SimError::UnknownKernel { key, kernel } => {
                Response::error(404, format!("profile {key} has no kernel named {kernel:?}"))
            }
            SimError::Internal(msg) => {
                Response::error(500, format!("similarity search failed: {msg}"))
            }
        }
    }
}

impl Default for SimService {
    fn default() -> Self {
        Self::new()
    }
}

impl SimService {
    /// An empty, unfitted service.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self {
            state: RankedMutex::new(rank::SIMINDEX, "serve.simindex", SimState { fitted: None }),
        }
    }

    /// Counters for the metrics scrape; takes and releases the lock.
    #[must_use]
    pub(crate) fn snapshot(&self) -> SimSnapshot {
        let guard = self.state.lock();
        guard
            .fitted
            .as_ref()
            .map_or_else(SimSnapshot::default, |f| SimSnapshot {
                index: f.index.stats(),
                clusters: f.clusters.len(),
                reclusters: f.clusters.reclusters(),
            })
    }

    /// Ingest every kernel of `profile` (idempotent — ids are
    /// `device/scale/workload/kernel`), then search for the named kernel
    /// (default: the dominant one by total GPU time, ties by name). Fits
    /// the encoder on this profile if nothing was ingested before.
    fn ingest_and_search(
        &self,
        triple: &Triple,
        profile: &Profile,
        kernel: Option<&str>,
        k: usize,
        ctx: Option<SpanCtx<'_>>,
    ) -> Result<SimilarReport, SimError> {
        let kernels = profile.kernels();
        if kernels.is_empty() {
            return Err(SimError::Internal(format!(
                "profile {} has no kernels to index",
                triple.key()
            )));
        }

        let mut guard = self.state.lock();
        if guard.fitted.is_none() {
            let corpus: Vec<KernelMetrics> = kernels.iter().map(|kp| kp.metrics).collect();
            let encoder = Encoder::fit(Roofline::for_device(&triple.device()), &corpus);
            let dims = encoder.dims();
            guard.fitted = Some(Fitted {
                encoder,
                device_slug: triple.device_slug().to_owned(),
                index: SimIndex::new(dims),
                clusters: ClusterSet::new(dims, ClusterConfig::default()),
            });
        }
        let Some(fitted) = guard.fitted.as_mut() else {
            return Err(SimError::Internal(
                "encoder fit produced no state".to_owned(),
            ));
        };

        let mut added = 0usize;
        let mut reclusters = 0usize;
        {
            let mut span = ctx.map(|c| c.child("simindex.encode"));
            for kp in kernels {
                let id = format!("{}/{}", triple.key(), kp.name);
                if fitted.index.contains(&id) {
                    continue;
                }
                let v = fitted.encoder.encode_metrics(&kp.metrics);
                let (slot, fresh) = fitted
                    .index
                    .insert(&id, &v)
                    .map_err(|e| SimError::Internal(e.to_string()))?;
                if fresh {
                    added += 1;
                    if fitted.clusters.assign(&fitted.index, slot).reclustered {
                        reclusters += 1;
                    }
                }
            }
            if let Some(span) = &mut span {
                span.tag("kernels", kernels.len());
                span.tag("added", added);
            }
        }
        if reclusters > 0 {
            // Marker span: the re-clusters already ran inside the ingest
            // loop; this records that (and how often) they fired.
            if let Some(c) = ctx {
                let mut span = c.child("simindex.recluster");
                span.tag("events", reclusters);
            }
        }

        let target = match kernel {
            Some(name) => kernels.iter().find(|kp| kp.name == name).ok_or_else(|| {
                SimError::UnknownKernel {
                    key: triple.key(),
                    kernel: name.to_owned(),
                }
            })?,
            // A profile lists its kernels in dominance order.
            None => kernels
                .first()
                .ok_or_else(|| SimError::Internal("no dominant kernel".to_owned()))?,
        };
        let q = fitted.encoder.encode_metrics(&target.metrics);
        let query = format!("{}/{}", triple.key(), target.name);
        Self::search_fitted(fitted, query, &q, k, ctx)
    }

    /// Encode and search one inline [`cactus_simindex::VECTOR_DIMS`]-long
    /// metric vector.
    fn search_inline(
        &self,
        v: &[f64],
        k: usize,
        ctx: Option<SpanCtx<'_>>,
    ) -> Result<SimilarReport, SimError> {
        let mut guard = self.state.lock();
        let Some(fitted) = guard.fitted.as_mut() else {
            return Err(SimError::Empty);
        };
        let q = {
            let _span = ctx.map(|c| c.child("simindex.encode"));
            fitted
                .encoder
                .encode_vector(v)
                .map_err(|e| SimError::BadVector(e.to_string()))?
        };
        Self::search_fitted(fitted, "inline vector".to_owned(), &q, k, ctx)
    }

    /// The shared search tail: pruned k-NN under a `simindex.search` span.
    fn search_fitted(
        fitted: &mut Fitted,
        query: String,
        q: &[f64],
        k: usize,
        ctx: Option<SpanCtx<'_>>,
    ) -> Result<SimilarReport, SimError> {
        let mut span = ctx.map(|c| c.child("simindex.search"));
        let result = fitted
            .index
            .search(q, k)
            .map_err(|e| SimError::Internal(e.to_string()))?;
        if let Some(span) = &mut span {
            span.tag("k", k);
            span.tag("probed", result.probed);
            span.tag("pruned", result.pruned);
        }
        Ok(SimilarReport {
            query,
            k,
            hits: (1..)
                .zip(result.neighbors)
                .map(|(rank, n)| SimilarHit {
                    rank,
                    id: n.id,
                    distance: n.dist,
                })
                .collect(),
            probed: result.probed,
            pruned: result.pruned,
            size: fitted.index.len(),
            cells: fitted.index.stats().cells,
            clusters: fitted.clusters.len(),
        })
    }

    /// The `/v1/similar/stats` body: `key value` lines plus the greedy
    /// proxy subset covering every cluster within [`PROXY_BUDGET`].
    #[must_use]
    pub(crate) fn stats_page(&self) -> String {
        let guard = self.state.lock();
        let mut out = String::new();
        let Some(fitted) = guard.fitted.as_ref() else {
            out.push_str("fitted false\n");
            out.push_str(
                "# seed the index with GET /v1/similar?device=<d>&scale=<s>&workload=<w>\n",
            );
            return out;
        };
        let s = fitted.index.stats();
        out.push_str("fitted true\n");
        let _ = writeln!(out, "encoder_dims {}", fitted.encoder.dims());
        let _ = writeln!(out, "encoder_device {}", fitted.device_slug);
        let _ = writeln!(out, "vectors {}", s.size);
        let _ = writeln!(out, "cells {}", s.cells);
        let _ = writeln!(out, "queries {}", s.queries);
        let _ = writeln!(out, "probes {}", s.probes);
        let _ = writeln!(out, "pruned {}", s.pruned);
        let _ = writeln!(out, "inserts {}", s.inserts);
        let _ = writeln!(out, "repartitions {}", s.repartitions);
        let _ = writeln!(out, "clusters {}", fitted.clusters.len());
        let _ = writeln!(out, "reclusters {}", fitted.clusters.reclusters());
        let proxies = proxy::select(&fitted.index, &fitted.clusters, PROXY_BUDGET);
        let _ = writeln!(out, "proxies {}", proxies.len());
        for p in &proxies {
            let _ = writeln!(out, "proxy {} covers={}", p.id, p.covers.len());
        }
        out
    }
}

/// Handle `GET /v1/similar`.
#[must_use]
pub(crate) fn similar(state: &ServerState, req: &Request, ctx: SpanCtx<'_>) -> Response {
    let query = req.query();
    let k = match k_from_query(query) {
        Ok(k) => k,
        Err(msg) => return Response::error(400, msg),
    };
    let mut span = ctx.child("serve.similar");

    if let Some(raw) = query_param(query, "vector") {
        span.tag("form", "vector");
        let v = match parse_vector(raw) {
            Ok(v) => v,
            Err(msg) => return Response::error(400, msg),
        };
        return match state.sim.search_inline(&v, k, Some(span.ctx())) {
            Ok(report) => Response::ok(render_similar(&report), CSV),
            Err(e) => e.into_response(),
        };
    }

    let (device, scale, workload) = match (
        query_param(query, "device"),
        query_param(query, "scale"),
        query_param(query, "workload"),
    ) {
        (Some(d), Some(s), Some(w)) => (d, s, w),
        _ => {
            return Response::error(
                400,
                "similar query needs either vector=v1,...,v15 or \
                 device=<d>&scale=<s>&workload=<w> (optionally &kernel=<name>&k=<n>)",
            )
        }
    };
    let triple = match state.service.modeled_triple(device, scale, workload) {
        Ok(t) => t,
        Err(msg) => return Response::error(404, msg),
    };
    span.tag("form", "reference");
    span.tag("key", triple.key());

    // Resolve the profile *before* taking the simindex lock: the
    // single-flight and store ranks sit below SIMINDEX, and the
    // ranked-lock checker would flag the inverted order deterministically.
    let (resolved, source) = match state.service.profile(&triple, Some(span.ctx())) {
        Ok(p) => p,
        Err(msg) => return Response::error(500, format!("simulation failed: {msg}")),
    };
    span.tag("source", source.label());

    match state.sim.ingest_and_search(
        &triple,
        &resolved.profile,
        query_param(query, "kernel"),
        k,
        Some(span.ctx()),
    ) {
        Ok(report) => Response::ok(render_similar(&report), CSV),
        Err(e) => e.into_response(),
    }
}

/// Handle `GET /v1/similar/stats`.
#[must_use]
pub(crate) fn stats(state: &ServerState) -> Response {
    Response::ok(state.sim.stats_page(), TEXT)
}

/// The similarity CSV: `#` comment lines with query/index/search context,
/// then `rank,id,distance` rows ascending by `(distance, id)`.
fn render_similar(report: &SimilarReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# query: {}", wire::comment_text(&report.query));
    let _ = writeln!(
        out,
        "# index: {} vectors in {} cells, {} clusters",
        report.size, report.cells, report.clusters
    );
    let _ = writeln!(
        out,
        "# search: k={} probed={} pruned={}",
        report.k, report.probed, report.pruned
    );
    wire::write_similar(&mut out, &report.hits);
    out
}

fn k_from_query(query: Option<&str>) -> Result<usize, String> {
    let Some(raw) = query_param(query, "k") else {
        return Ok(K_DEFAULT);
    };
    match raw.parse::<usize>() {
        Ok(k) if (1..=K_MAX).contains(&k) => Ok(k),
        _ => Err(format!("k must be an integer in [1, {K_MAX}], got {raw:?}")),
    }
}

fn parse_vector(raw: &str) -> Result<Vec<f64>, String> {
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| format!("vector component {s:?} is not a number"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_parses_and_bounds() {
        assert_eq!(k_from_query(None), Ok(K_DEFAULT));
        assert_eq!(k_from_query(Some("k=1")), Ok(1));
        assert_eq!(k_from_query(Some("k=50")), Ok(50));
        assert!(k_from_query(Some("k=0")).is_err());
        assert!(k_from_query(Some("k=51")).is_err());
        assert!(k_from_query(Some("k=two")).is_err());
    }

    #[test]
    fn vectors_parse_or_explain() {
        assert_eq!(parse_vector("1,2.5,-3"), Ok(vec![1.0, 2.5, -3.0]));
        assert!(parse_vector("1,x,3").is_err());
    }

    #[test]
    fn unfitted_service_reports_empty() {
        let svc = SimService::new();
        assert!(matches!(
            svc.search_inline(&[0.0; cactus_simindex::VECTOR_DIMS], 3, None),
            Err(SimError::Empty)
        ));
        assert!(svc.stats_page().starts_with("fitted false"));
        let snap = svc.snapshot();
        assert_eq!(snap.index.size, 0);
    }
}
