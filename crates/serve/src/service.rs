//! The profile service: resolves (device preset, scale, workload) triples
//! to [`Profile`]s through the two lower levels of the serving hierarchy —
//! the durable `cactus-store` segment log, then live simulation coalesced
//! by single-flight and executed on pooled memoizing engines. Simulated
//! profiles are appended back to the store (fsync'd before the index
//! admits them), so a restart serves yesterday's corpus instead of
//! starting cold.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use cactus_core::{workloads, SuiteScale, Workload};
use cactus_gpu::catalog;
use cactus_gpu::engine::MemoStats;
use cactus_gpu::pool::{GpuPool, PoolInstruments};
use cactus_gpu::Device;
use cactus_obs::lock::{rank, RankedMutex};
use cactus_obs::{Counter, MetricsRegistry, SpanCtx};
use cactus_profiler::store as profile_store;
use cactus_profiler::Profile;
use cactus_store::Store;
use cactus_suites::Benchmark;
use cactus_wir::Finding;

use crate::singleflight::SingleFlight;

/// The device ids the catalog exposes, as URL slugs (catalog order).
#[must_use]
pub fn device_slugs() -> Vec<&'static str> {
    catalog::device_ids()
}

/// The scale presets the service exposes, as URL slugs.
pub const SCALE_SLUGS: [&str; 3] = ["tiny", "small", "profile"];

/// Look up a device preset by its URL slug (case-insensitive), against
/// the full device catalog.
#[must_use]
pub fn device_by_slug(slug: &str) -> Option<Device> {
    catalog::by_id(slug).map(catalog::CatalogEntry::device)
}

/// Look up a suite scale by its URL slug (case-insensitive).
#[must_use]
pub fn scale_by_slug(slug: &str) -> Option<SuiteScale> {
    match slug.to_ascii_lowercase().as_str() {
        "tiny" => Some(SuiteScale::Tiny),
        "small" => Some(SuiteScale::Small),
        "profile" => Some(SuiteScale::Profile),
        _ => None,
    }
}

fn scale_slug(scale: SuiteScale) -> &'static str {
    match scale {
        SuiteScale::Tiny => "tiny",
        SuiteScale::Small => "small",
        SuiteScale::Profile => "profile",
    }
}

/// A workload submitted through `POST /v1/workloads` as a `cactus-wir`
/// definition: the validated AST plus the canonical source it was parsed
/// from (the source is what the store persists and `/v1/workloads` echoes).
pub struct WirWorkload {
    /// The definition's `workload "<name>"` header, used as the URL slug.
    pub name: String,
    /// Source text as submitted (the durable store holds these bytes).
    pub source: String,
    /// The validated definition the interpreter executes.
    pub def: cactus_wir::WorkloadDef,
}

/// A servable workload: a Cactus suite member, a PRT comparison benchmark,
/// or a submitted IR definition.
pub enum ServableWorkload {
    /// One of the ten Cactus workloads (keyed by abbreviation).
    Cactus(Workload),
    /// One Parboil/Rodinia/Tango benchmark (keyed by name).
    Prt(Benchmark),
    /// A validated `cactus-wir` definition (keyed by its workload name).
    Wir(Arc<WirWorkload>),
}

impl ServableWorkload {
    /// Canonical name: the Cactus abbreviation, the PRT benchmark name, or
    /// the IR definition's workload name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            ServableWorkload::Cactus(w) => w.abbr,
            ServableWorkload::Prt(b) => b.name,
            ServableWorkload::Wir(w) => &w.name,
        }
    }
}

/// Resolve a workload by name: Cactus abbreviations match
/// case-insensitively (`gms` → `GMS`), PRT benchmarks by exact name.
#[must_use]
pub fn workload_by_name(name: &str) -> Option<ServableWorkload> {
    if let Some(w) = workloads::by_abbr(&name.to_ascii_uppercase()) {
        return Some(ServableWorkload::Cactus(w));
    }
    cactus_suites::by_name(name).map(ServableWorkload::Prt)
}

/// Store-key prefix for submitted IR definitions. Lives in the same
/// durable store as profiles but in a disjoint key namespace — profile
/// keys always start with a catalog device slug, never `wir/`.
const WIR_KEY_PREFIX: &str = "wir/";

/// Store version stamped on a profile record superseded by a workload
/// re-submission. [`current_version`] is never 0 (`MODEL_VERSION` starts at
/// 1 and only grows), so the record is always a store miss.
const SUPERSEDED_VERSION: u32 = 0;

/// The version a stored profile record must carry to be served: the
/// [`record_version`](catalog::CatalogEntry::record_version) of the catalog
/// device its `device/scale/workload` key starts with. `None` when the key
/// names no catalog device (`wir/` definitions version by their own format).
pub(crate) fn current_version(key: &str) -> Option<u32> {
    catalog::by_id(key.split('/').next()?).map(catalog::CatalogEntry::record_version)
}

/// Why `POST /v1/workloads` refused a submission.
pub enum WorkloadRejection {
    /// The static validator found defects; maps to `422` with the findings.
    Invalid(Vec<Finding>),
    /// The name collides with a built-in catalog entry; maps to `400`.
    Conflict(String),
    /// The durable store could not persist the definition; maps to `500`.
    Store(String),
}

/// Serve-side submission policy, layered on top of the language-level
/// validator: the name must be usable as a URL path segment, and a
/// definition that declares scales must declare every scale the routes can
/// ask for (otherwise `/v1/profile/<dev>/small/<name>` would fail at
/// interpretation time — after validation claimed the definition clean).
fn submission_policy(def: &cactus_wir::WorkloadDef) -> Vec<Finding> {
    let mut findings = Vec::new();
    let name_ok = !def.name.is_empty()
        && def.name.len() <= 64
        && def
            .name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-');
    if !name_ok {
        findings.push(Finding {
            pass: "serve",
            line: def.line,
            message: format!(
                "workload name {:?} is not routable; use 1-64 chars from [a-z0-9_-]",
                def.name
            ),
        });
    }
    if !def.scales.is_empty() {
        for slug in SCALE_SLUGS {
            if !def.scales.iter().any(|s| s.name == slug) {
                findings.push(Finding {
                    pass: "serve",
                    line: def.line,
                    message: format!(
                        "definition declares scales but omits {slug:?}; declare all of {} (or none)",
                        SCALE_SLUGS.join(", ")
                    ),
                });
            }
        }
    }
    findings
}

/// The language-level validator plus the serve submission policy, exactly
/// as `register_wir` applies them.
fn submission_findings(def: &cactus_wir::WorkloadDef) -> Vec<Finding> {
    let mut findings = cactus_wir::check_with(def, &cactus_wir::CostCeilings::default());
    if findings.is_empty() {
        findings = submission_policy(def);
    }
    findings
}

/// The built-in-name collision check, shared by `register_wir` and
/// [`validate_submission`].
fn builtin_conflict(def: &cactus_wir::WorkloadDef) -> Option<String> {
    workload_by_name(&def.name).is_some().then(|| {
        format!(
            "workload name {:?} is taken by a built-in catalog entry",
            def.name
        )
    })
}

/// Run the full submission validation stack — parse, the multi-pass
/// validator under default ceilings, the serve submission policy, and the
/// built-in-name conflict check — without touching any state. The gateway
/// pre-validates with this exact function before broadcasting a
/// `POST /v1/workloads`, so the edge's verdict always matches every
/// backend's and a deterministic rejection never reaches the fleet.
///
/// # Errors
///
/// The same [`WorkloadRejection`] variants `register_wir` returns
/// (`Store` is never produced here).
pub fn validate_submission(source: &str) -> Result<cactus_wir::WorkloadDef, WorkloadRejection> {
    let def = cactus_wir::parse(source).map_err(|f| WorkloadRejection::Invalid(vec![f]))?;
    let findings = submission_findings(&def);
    if !findings.is_empty() {
        return Err(WorkloadRejection::Invalid(findings));
    }
    if let Some(msg) = builtin_conflict(&def) {
        return Err(WorkloadRejection::Conflict(msg));
    }
    Ok(def)
}

/// Rebuild the submitted-workload registry from the durable store at
/// startup. Records that no longer parse or validate under the current
/// binary are skipped with a warning — they stay in the store untouched,
/// so an upgraded validator quarantines rather than destroys them.
fn reload_wir(store: &Store) -> BTreeMap<String, Arc<WirWorkload>> {
    let mut map = BTreeMap::new();
    for entry in store.entries() {
        let Some(name) = entry.key.strip_prefix(WIR_KEY_PREFIX) else {
            continue;
        };
        if entry.version != cactus_wir::FORMAT_VERSION {
            eprintln!(
                "cactus-serve: skipping stored definition {} at format v{} (binary speaks v{})",
                entry.key,
                entry.version,
                cactus_wir::FORMAT_VERSION
            );
            continue;
        }
        let Ok(Some(record)) = store.get(&entry.key) else {
            continue;
        };
        let Ok(source) = String::from_utf8(record.value) else {
            eprintln!("cactus-serve: stored definition {} is not UTF-8", entry.key);
            continue;
        };
        match cactus_wir::analyze(&source, &cactus_wir::CostCeilings::default()) {
            Ok(def) if def.name == name => {
                map.insert(
                    name.to_owned(),
                    Arc::new(WirWorkload {
                        name: name.to_owned(),
                        source,
                        def,
                    }),
                );
            }
            Ok(def) => eprintln!(
                "cactus-serve: stored definition {} names workload {:?}; skipping",
                entry.key, def.name
            ),
            Err(findings) => eprintln!(
                "cactus-serve: stored definition {} no longer validates ({} finding(s)); skipping",
                entry.key,
                findings.len()
            ),
        }
    }
    map
}

/// A fully resolved, canonicalized request triple.
pub struct Triple {
    /// Device preset slug (canonical lowercase form).
    pub device_slug: String,
    /// The resolved device.
    pub device: Device,
    /// The resolved scale.
    pub scale: SuiteScale,
    /// The resolved workload.
    pub workload: ServableWorkload,
}

impl Triple {
    /// Resolve raw path segments into a triple.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the unknown segment and the
    /// valid options.
    pub fn resolve(device: &str, scale: &str, workload: &str) -> Result<Self, String> {
        Self::resolve_with(device, scale, workload, |_| None)
    }

    /// [`Triple::resolve`] with a fallback lookup for workloads outside the
    /// built-in catalogs (the service passes its submitted-IR registry).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the unknown segment and the
    /// valid options.
    pub fn resolve_with(
        device: &str,
        scale: &str,
        workload: &str,
        extra: impl FnOnce(&str) -> Option<ServableWorkload>,
    ) -> Result<Self, String> {
        let device_slug = device.to_ascii_lowercase();
        let resolved_device = device_by_slug(&device_slug).ok_or_else(|| {
            format!(
                "unknown device {device:?}; expected one of {}",
                device_slugs().join(", ")
            )
        })?;
        let resolved_scale = scale_by_slug(scale).ok_or_else(|| {
            format!(
                "unknown scale {scale:?}; expected one of {}",
                SCALE_SLUGS.join(", ")
            )
        })?;
        let resolved_workload = workload_by_name(workload)
            .or_else(|| extra(workload))
            .ok_or_else(|| {
                format!("unknown workload {workload:?}; see /v1/workloads for the catalog")
            })?;
        Ok(Self {
            device_slug,
            device: resolved_device,
            scale: resolved_scale,
            workload: resolved_workload,
        })
    }

    /// Canonical `device/scale/workload` key, shared by the response cache
    /// and the single-flight group.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}",
            self.device_slug,
            scale_slug(self.scale),
            self.workload.name()
        )
    }
}

/// How a profile request was ultimately satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileSource {
    /// Loaded from the on-disk profile store.
    Store,
    /// Simulated live on a pooled engine.
    Simulated,
    /// Coalesced onto a concurrent identical request (no own work).
    Coalesced,
}

impl ProfileSource {
    /// The lower-case name spans and pages tag a request's source with.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProfileSource::Store => "store",
            ProfileSource::Simulated => "simulated",
            ProfileSource::Coalesced => "coalesced",
        }
    }
}

/// What [`ProfileService::profile`] resolves a triple to: the profile and
/// the `cactus-profile v1` document that encodes it — the text the store
/// held, or the text just rendered for the store — so `/v1/profile` serves
/// the document instead of rendering the profile a second time.
/// `read_profile(&document)` is `profile` by construction on both paths.
#[derive(Debug)]
pub struct ResolvedProfile {
    /// The parsed (or freshly simulated) profile the CSV views render.
    pub profile: Profile,
    /// Its stored serialization, byte for byte.
    pub document: String,
}

/// The store + simulation levels of the serving hierarchy, shared across
/// worker threads.
pub struct ProfileService {
    pools: Vec<(&'static str, GpuPool)>,
    /// In-flight lookups; the value carries whether the store satisfied it.
    flight: SingleFlight<(Arc<ResolvedProfile>, bool)>,
    store: Arc<Store>,
    /// Workloads submitted through `POST /v1/workloads`, keyed by name.
    /// Held only for point lookups and inserts — never across a simulation.
    wir: RankedMutex<BTreeMap<String, Arc<WirWorkload>>>,
    store_hits: Counter,
    simulations: Counter,
    workloads_submitted: Counter,
    workloads_rejected: Counter,
    wir_exec_kernels: Counter,
}

impl ProfileService {
    /// A service modeling the full device catalog, backed by a store rooted
    /// at `store_dir` (defaults to [`cactus_store::default_dir`] when
    /// `None`), counting into a private registry.
    ///
    /// # Errors
    ///
    /// Fails when the store cannot be opened or recovered — in particular
    /// when another process (or service) has the directory open.
    pub fn new(store_dir: Option<PathBuf>) -> Result<Self, String> {
        Self::with_registry(store_dir, &[], &MetricsRegistry::new())
    }

    /// A service whose counters (store hits, simulations, engine memo
    /// traffic, engines created) register in `registry` under
    /// `cactus_serve_*` names. Opens (creating if needed) the durable store
    /// under `store_dir` and holds its single-writer lock until the service
    /// drops.
    ///
    /// `devices` names the catalog ids this backend models — one engine
    /// pool per id; an empty slice models the full catalog. Requests for
    /// other catalog devices are refused, which is what lets a gateway
    /// route them to a capable peer instead.
    ///
    /// # Errors
    ///
    /// Fails if a device id is not in the catalog, a metric name is
    /// already registered, or the store cannot be opened/recovered — in
    /// particular when another process (or service) has the directory open.
    pub fn with_registry(
        store_dir: Option<PathBuf>,
        devices: &[String],
        registry: &MetricsRegistry,
    ) -> Result<Self, String> {
        let reg = |e: cactus_obs::RegistryError| e.to_string();
        let instruments = PoolInstruments {
            memo_hits: registry
                .counter(
                    "cactus_serve_engine_memo_hits_total",
                    "launches replayed from a warm memo cache",
                )
                .map_err(reg)?,
            memo_misses: registry
                .counter(
                    "cactus_serve_engine_memo_misses_total",
                    "launches simulated from scratch",
                )
                .map_err(reg)?,
            engines_created: registry
                .counter(
                    "cactus_serve_engines_created_total",
                    "engines created across all pools",
                )
                .map_err(reg)?,
        };
        let modeled: Vec<&'static catalog::CatalogEntry> = if devices.is_empty() {
            catalog::CATALOG.iter().collect()
        } else {
            devices
                .iter()
                .map(|id| {
                    catalog::by_id(id).ok_or_else(|| {
                        format!(
                            "unknown device id {id:?}; the catalog has {}",
                            device_slugs().join(", ")
                        )
                    })
                })
                .collect::<Result<Vec<_>, String>>()?
        };
        let pools = modeled
            .iter()
            .map(|entry| {
                (
                    entry.id,
                    GpuPool::new(entry.device()).instrument(instruments.clone()),
                )
            })
            .collect();
        let dir = store_dir.unwrap_or_else(cactus_store::default_dir);
        let durable = Store::open(&dir)
            .map_err(|e| format!("cannot open profile store at {}: {e}", dir.display()))?;
        let wir = reload_wir(&durable);
        Ok(Self {
            pools,
            flight: SingleFlight::new(),
            store: Arc::new(durable),
            wir: RankedMutex::new(rank::WIR_REGISTRY, "serve.wir_registry", wir),
            store_hits: registry
                .counter(
                    "cactus_serve_store_hits_total",
                    "profiles answered from the durable store",
                )
                .map_err(reg)?,
            simulations: registry
                .counter(
                    "cactus_serve_simulations_total",
                    "profiles computed by live simulation",
                )
                .map_err(reg)?,
            workloads_submitted: registry
                .counter(
                    "cactus_serve_workloads_submitted_total",
                    "IR definitions accepted through POST /v1/workloads",
                )
                .map_err(reg)?,
            workloads_rejected: registry
                .counter(
                    "cactus_serve_workloads_rejected_total",
                    "IR submissions refused by the static validator",
                )
                .map_err(reg)?,
            wir_exec_kernels: registry
                .counter(
                    "cactus_wir_exec_kernels_total",
                    "kernel launches interpreted from IR definitions",
                )
                .map_err(reg)?,
        })
    }

    /// The durable store behind this service (shared with the server's
    /// warming, compaction, and `/v1/store/*` routes).
    #[must_use]
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// The catalog ids this backend models, in construction order.
    #[must_use]
    pub fn modeled(&self) -> Vec<&'static str> {
        self.pools.iter().map(|(id, _)| *id).collect()
    }

    /// Whether this backend models the given catalog id.
    #[must_use]
    pub fn models(&self, device_slug: &str) -> bool {
        self.pools
            .iter()
            .any(|(id, _)| id.eq_ignore_ascii_case(device_slug))
    }

    /// Resolve one triple to a profile: profile store first, then live
    /// simulation. Concurrent calls for the same triple coalesce into one
    /// lookup/simulation via single-flight. When `ctx` is given, the leader
    /// records `serve.store` / `serve.simulate` (and nested `engine.launch`)
    /// spans under it; coalesced followers record nothing — their one span
    /// is the caller's, tagged with the coalesced source.
    ///
    /// # Errors
    ///
    /// Returns the leader's failure message (e.g. a panic during
    /// simulation) verbatim for every coalesced caller.
    pub fn profile(
        &self,
        triple: &Triple,
        ctx: Option<SpanCtx<'_>>,
    ) -> Result<(Arc<ResolvedProfile>, ProfileSource), String> {
        if !self.models(&triple.device_slug) {
            return Err(format!(
                "device {:?} is not modeled by this backend; modeled: {}",
                triple.device_slug,
                self.modeled().join(", ")
            ));
        }
        let key = triple.key();
        let version = current_version(&key)
            .ok_or_else(|| format!("device {:?} is not in the catalog", triple.device_slug))?;
        let (result, leader) = self.flight.run(&key, || {
            let store_hit = {
                let mut span = ctx.map(|c| c.child("serve.store"));
                let profile = self.load_from_store(
                    &key,
                    version,
                    span.as_ref().map(cactus_obs::SpanGuard::ctx),
                );
                if let Some(span) = &mut span {
                    span.tag("hit", if profile.is_some() { "true" } else { "false" });
                }
                profile
            };
            if let Some(resolved) = store_hit {
                self.store_hits.inc();
                return Ok((Arc::new(resolved), true));
            }
            self.simulations.inc();
            let profile = {
                let mut span = ctx.map(|c| c.child("serve.simulate"));
                if let Some(span) = &mut span {
                    span.tag("key", &key);
                }
                self.simulate(triple, span.as_ref().map(cactus_obs::SpanGuard::ctx))
            }?;
            let document = self.append_to_store(&key, version, &profile, ctx);
            Ok((Arc::new(ResolvedProfile { profile, document }), false))
        });
        let (resolved, from_store) = result?;
        let source = match (leader, from_store) {
            (false, _) => ProfileSource::Coalesced,
            (true, true) => ProfileSource::Store,
            (true, false) => ProfileSource::Simulated,
        };
        Ok((resolved, source))
    }

    /// Probe the durable store for the triple's key. Records at any version
    /// but `version` (the key's [`current_version`]), records that are not
    /// UTF-8 and records that do not parse are misses — the caller
    /// re-simulates and the new append supersedes them (compaction reclaims
    /// the bytes later). A hit keeps the record's text beside its parse.
    fn load_from_store(
        &self,
        key: &str,
        version: u32,
        ctx: Option<SpanCtx<'_>>,
    ) -> Option<ResolvedProfile> {
        let mut span = ctx.map(|c| c.child("store.get"));
        let record = match self.store.get(key) {
            Ok(record) => record?,
            Err(e) => {
                eprintln!("cactus-serve: store get {key} failed: {e}");
                if let Some(span) = &mut span {
                    span.tag("error", e.to_string());
                }
                return None;
            }
        };
        if let Some(span) = &mut span {
            span.tag("version", record.version.to_string());
        }
        if record.version != version {
            return None;
        }
        let document = String::from_utf8(record.value).ok()?;
        match profile_store::read_profile(&document) {
            Ok(profile) => Some(ResolvedProfile { profile, document }),
            Err(e) => {
                eprintln!("cactus-serve: store record {key} does not parse: {e}");
                None
            }
        }
    }

    /// Append a freshly simulated profile to the durable store and return
    /// the document it rendered. Failures are logged, not fatal — serving
    /// beats durability here, and the next identical request simply
    /// simulates again.
    fn append_to_store(
        &self,
        key: &str,
        version: u32,
        profile: &Profile,
        ctx: Option<SpanCtx<'_>>,
    ) -> String {
        let text = profile_store::write_profile(profile);
        let mut span = ctx.map(|c| c.child("store.append"));
        if let Some(span) = &mut span {
            span.tag("bytes", text.len().to_string());
        }
        if let Err(e) = self.store.append(key, version, text.as_bytes()) {
            eprintln!("cactus-serve: store append {key} failed: {e}");
            if let Some(span) = &mut span {
                span.tag("error", e.to_string());
            }
        }
        text
    }

    /// Validate and durably ingest one externally supplied record (the
    /// gateway's replication and anti-entropy pushes). Profile keys must
    /// be a canonical `cactus-profile v1` document — the exact bytes
    /// `write_profile` renders for what the body parses to, because
    /// `/v1/profile` serves stored bytes as they are — and are stored
    /// verbatim at the key's [`current_version`]; `wir/<name>` keys run
    /// the full submission stack and register the workload exactly as
    /// `POST /v1/workloads` would — that is the repair path that lets a
    /// backend which missed a workload broadcast converge.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unparseable bodies, keys that
    /// name no catalog device, rejected definitions, or store failures.
    pub fn ingest_record(&self, key: &str, text: &str) -> Result<(), String> {
        if let Some(name) = key.strip_prefix(WIR_KEY_PREFIX) {
            let def = validate_submission(text).map_err(|r| match r {
                WorkloadRejection::Invalid(findings) => format!(
                    "definition rejected with {} finding(s); first: {}",
                    findings.len(),
                    findings.first().map(Finding::to_string).unwrap_or_default()
                ),
                WorkloadRejection::Conflict(msg) | WorkloadRejection::Store(msg) => msg,
            })?;
            if def.name != name {
                return Err(format!(
                    "definition names workload {:?} but the key says {name:?}",
                    def.name
                ));
            }
            return self
                .register_wir(text, None)
                .map(|_| ())
                .map_err(|r| match r {
                    WorkloadRejection::Invalid(_) => "definition failed re-validation".to_owned(),
                    WorkloadRejection::Conflict(msg) | WorkloadRejection::Store(msg) => msg,
                });
        }
        let parsed =
            profile_store::read_profile(text).map_err(|e| format!("body is not a profile: {e}"))?;
        if profile_store::write_profile(&parsed) != text {
            return Err("body is not a canonical profile document".to_owned());
        }
        let version = current_version(key)
            .ok_or_else(|| format!("key {key:?} does not start with a catalog device id"))?;
        self.store
            .append(key, version, text.as_bytes())
            .map_err(|e| format!("store append failed: {e}"))
    }

    /// Validate and register one submitted IR definition: parse, run the
    /// full static validator, apply the serve submission policy, persist
    /// the source durably, and admit the workload into the routing
    /// registry. Returns the workload name and whether it replaced an
    /// earlier submission of the same name.
    ///
    /// # Errors
    ///
    /// [`WorkloadRejection::Invalid`] carries validator findings (nothing
    /// was persisted); [`WorkloadRejection::Conflict`] a built-in name
    /// collision; [`WorkloadRejection::Store`] a persistence failure.
    pub fn register_wir(
        &self,
        source: &str,
        ctx: Option<SpanCtx<'_>>,
    ) -> Result<(String, bool), WorkloadRejection> {
        let reject = |findings: Vec<Finding>| {
            self.workloads_rejected.inc();
            WorkloadRejection::Invalid(findings)
        };
        let def = {
            let mut span = ctx.map(|c| c.child("wir.parse"));
            match cactus_wir::parse(source) {
                Ok(def) => def,
                Err(f) => {
                    if let Some(span) = &mut span {
                        span.tag("error", f.to_string());
                    }
                    return Err(reject(vec![f]));
                }
            }
        };
        {
            let mut span = ctx.map(|c| c.child("wir.check"));
            let findings = submission_findings(&def);
            if let Some(span) = &mut span {
                span.tag("workload", &def.name);
                span.tag("findings", findings.len().to_string());
            }
            if !findings.is_empty() {
                return Err(reject(findings));
            }
        }
        if let Some(msg) = builtin_conflict(&def) {
            self.workloads_rejected.inc();
            return Err(WorkloadRejection::Conflict(msg));
        }
        let key = format!("{WIR_KEY_PREFIX}{}", def.name);
        {
            let mut span = ctx.map(|c| c.child("store.append"));
            if let Some(span) = &mut span {
                span.tag("bytes", source.len().to_string());
            }
            if let Err(e) = self
                .store
                .append(&key, cactus_wir::FORMAT_VERSION, source.as_bytes())
            {
                self.workloads_rejected.inc();
                if let Some(span) = &mut span {
                    span.tag("error", e.to_string());
                }
                return Err(WorkloadRejection::Store(format!(
                    "store append failed: {e}"
                )));
            }
        }
        let name = def.name.clone();
        let workload = Arc::new(WirWorkload {
            name: name.clone(),
            source: source.to_owned(),
            def,
        });
        let prev = self.wir.lock().insert(name.clone(), workload);
        let replaced = prev.is_some();
        if prev.is_some_and(|p| p.source != source) {
            // A *changed* definition's old profiles are stale the moment
            // the registry swaps; supersede them so no triple keeps
            // serving results computed from the replaced definition. A
            // byte-identical resubmission would re-derive the same bytes,
            // so its stored profiles stay valid.
            self.supersede_profiles(&name, ctx);
        }
        self.workloads_submitted.inc();
        Ok((name, replaced))
    }

    /// Mark every stored profile of `workload` stale by appending a
    /// [`SUPERSEDED_VERSION`] placeholder over it. `load_from_store`
    /// treats any version other than the key's [`current_version`] as a
    /// miss, so the next request re-simulates under the replacement
    /// definition and its fresh append supersedes the placeholder in turn.
    fn supersede_profiles(&self, workload: &str, ctx: Option<SpanCtx<'_>>) {
        let mut span = ctx.map(|c| c.child("store.supersede"));
        let mut superseded = 0u32;
        for device in catalog::device_ids() {
            for scale in SCALE_SLUGS {
                let key = format!("{device}/{scale}/{workload}");
                if !matches!(self.store.get(&key), Ok(Some(_))) {
                    continue;
                }
                match self
                    .store
                    .append(&key, SUPERSEDED_VERSION, b"superseded by re-submission\n")
                {
                    Ok(()) => superseded += 1,
                    Err(e) => eprintln!("cactus-serve: supersede {key} failed: {e}"),
                }
            }
        }
        if let Some(span) = &mut span {
            span.tag("workload", workload);
            span.tag("records", superseded.to_string());
        }
    }

    /// Resolve raw path segments against the built-in catalogs *and* the
    /// submitted-IR registry.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the unknown segment.
    pub fn resolve_triple(
        &self,
        device: &str,
        scale: &str,
        workload: &str,
    ) -> Result<Triple, String> {
        Triple::resolve_with(device, scale, workload, |name| {
            self.wir_workload(name).map(ServableWorkload::Wir)
        })
    }

    /// Look up one submitted definition by name.
    #[must_use]
    pub fn wir_workload(&self, name: &str) -> Option<Arc<WirWorkload>> {
        self.wir.lock().get(name).cloned()
    }

    /// Names of every registered submitted definition, sorted.
    #[must_use]
    pub fn wir_names(&self) -> Vec<String> {
        self.wir.lock().keys().cloned().collect()
    }

    /// Registered submitted definitions.
    #[must_use]
    pub fn wir_count(&self) -> usize {
        self.wir.lock().len()
    }

    /// Run the triple's workload on a pooled engine. Built-in workloads are
    /// infallible; IR definitions are interpreted under a `wir.exec` span
    /// and surface interpreter failures (the static validator makes these
    /// unreachable for registered definitions, but the error path stays —
    /// the interpreter is the final authority).
    fn simulate(&self, triple: &Triple, ctx: Option<SpanCtx<'_>>) -> Result<Profile, String> {
        let pool = self.pool(&triple.device_slug);
        let mut gpu = pool.checkout();
        let mut span = ctx.map(|c| c.child("engine.launch"));
        match &triple.workload {
            ServableWorkload::Cactus(w) => w.run(&mut gpu, triple.scale),
            ServableWorkload::Prt(b) => {
                // The comparison suites define only tiny and profile scales;
                // small maps to tiny.
                let scale = match triple.scale {
                    SuiteScale::Profile => cactus_suites::Scale::Profile,
                    SuiteScale::Tiny | SuiteScale::Small => cactus_suites::Scale::Tiny,
                };
                b.run(&mut gpu, scale);
            }
            ServableWorkload::Wir(w) => {
                let mut exec = span
                    .as_ref()
                    .map(|s| s.ctx().child("wir.exec"))
                    .or_else(|| ctx.map(|c| c.child("wir.exec")));
                if let Some(exec) = &mut exec {
                    exec.tag("workload", &w.name);
                    exec.tag("scale", scale_slug(triple.scale));
                }
                let launches = cactus_wir::run(&w.def, Some(scale_slug(triple.scale)), &mut gpu)
                    .map_err(|e| format!("wir exec failed at line {}: {}", e.line, e.message))?;
                self.wir_exec_kernels.add(launches);
                if let Some(exec) = &mut exec {
                    exec.tag("launches", launches.to_string());
                }
            }
        }
        if let Some(span) = &mut span {
            let delta = gpu.memo_delta();
            span.tag("device", &triple.device_slug);
            span.tag("memo_hits", delta.hits.to_string());
            span.tag("memo_misses", delta.misses.to_string());
        }
        Ok(Profile::from_records(gpu.records()))
    }

    fn pool(&self, device_slug: &str) -> &GpuPool {
        &self
            .pools
            .iter()
            .find(|(slug, _)| *slug == device_slug)
            // lint:allow(no_panic, profile() refuses unmodeled devices before simulate runs)
            .expect("modeled device has a pool")
            .1
    }

    /// Profiles answered from the on-disk store.
    #[must_use]
    pub fn store_hits(&self) -> u64 {
        self.store_hits.get()
    }

    /// Profiles computed by live simulation (coalesced requests count once).
    #[must_use]
    pub fn simulations(&self) -> u64 {
        self.simulations.get()
    }

    /// Aggregated launch-memo counters across every engine pool (completed
    /// checkouts only).
    #[must_use]
    pub fn engine_memo_stats(&self) -> MemoStats {
        self.pools
            .iter()
            .fold(MemoStats::default(), |acc, (_, pool)| {
                acc.merged(&pool.memo_stats())
            })
    }

    /// Total engines created across all pools.
    #[must_use]
    pub fn engines(&self) -> u64 {
        self.pools.iter().map(|(_, pool)| pool.engines()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slug_resolution_round_trips() {
        for slug in device_slugs() {
            assert!(device_by_slug(slug).is_some(), "{slug}");
        }
        for slug in SCALE_SLUGS {
            assert!(scale_by_slug(slug).is_some(), "{slug}");
        }
        assert!(device_by_slug("RTX-3080").is_some(), "case-insensitive");
        assert!(device_by_slug("h100").is_none());
        assert!(scale_by_slug("huge").is_none());
        // The new catalog parts resolve like the founding four.
        assert!(device_by_slug("rtx-3060").is_some());
        assert!(device_by_slug("uhd-630").is_some());
    }

    #[test]
    fn workload_resolution_covers_both_catalogs() {
        assert_eq!(workload_by_name("gms").expect("cactus").name(), "GMS");
        let prt = cactus_suites::all();
        let first = prt.first().expect("non-empty catalog");
        assert_eq!(
            workload_by_name(first.name).expect("prt").name(),
            first.name
        );
        assert!(workload_by_name("no-such-workload").is_none());
    }

    #[test]
    fn triple_key_is_canonical() {
        let t = Triple::resolve("RTX-3080", "TINY", "gms").expect("resolve");
        assert_eq!(t.key(), "rtx-3080/tiny/GMS");
        assert!(Triple::resolve("h100", "tiny", "GMS").is_err());
        assert!(Triple::resolve("rtx-3080", "huge", "GMS").is_err());
        assert!(Triple::resolve("rtx-3080", "tiny", "nope").is_err());
    }

    fn fresh_store_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cactus-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn simulation_matches_direct_run_and_counts_once() {
        let dir = fresh_store_dir("counts-once");
        let svc = ProfileService::new(Some(dir.clone())).expect("open service");
        let t = Triple::resolve("rtx-3080", "tiny", "GMS").expect("resolve");
        let (p, source) = svc.profile(&t, None).expect("profile");
        assert_eq!(source, ProfileSource::Simulated);
        assert_eq!(p.profile, cactus_core::run("GMS", SuiteScale::Tiny));
        assert_eq!(svc.simulations(), 1);
        assert_eq!(svc.store_hits(), 0);
        assert!(svc.engine_memo_stats().launches() > 0);

        // The simulation was appended to the durable store, so a second
        // call (a fresh flight — no response cache at this layer) is a
        // store hit and the result is bit-identical.
        let (p2, source2) = svc.profile(&t, None).expect("profile again");
        assert_eq!(source2, ProfileSource::Store);
        assert_eq!(p2.profile, p.profile);
        assert_eq!(p2.document, p.document);
        assert_eq!(svc.simulations(), 1, "store hit did not re-simulate");
        assert_eq!(svc.store_hits(), 1);
        assert_eq!(svc.engines(), 1, "engine was reused, not recreated");

        // And the corpus survives a restart: a fresh service over the same
        // directory recovers the record without simulating.
        drop(svc);
        let svc2 = ProfileService::new(Some(dir.clone())).expect("open service");
        let (p3, source3) = svc2.profile(&t, None).expect("profile after restart");
        assert_eq!(source3, ProfileSource::Store);
        assert_eq!(p3.profile, p.profile);
        assert_eq!(svc2.simulations(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulation_records_a_span_tree_under_the_caller() {
        let tracer = cactus_obs::Tracer::new(64);
        let trace = cactus_obs::TraceId::mint();
        let dir = fresh_store_dir("span-tree");
        let svc = ProfileService::new(Some(dir.clone())).expect("open service");
        let t = Triple::resolve("rtx-3080", "tiny", "GMS").expect("resolve");
        {
            let mut root = tracer.ctx(trace).child("serve.profile");
            let (_, source) = svc.profile(&t, Some(root.ctx())).expect("profile");
            root.tag("source", source.label());
        }
        let spans = tracer.spans_for(trace);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "store.get",
                "serve.store",
                "engine.launch",
                "serve.simulate",
                "store.append",
                "serve.profile"
            ],
            "children finish (and file) before their parents"
        );
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect(n);
        assert_eq!(
            by_name("serve.simulate").parent_id,
            by_name("serve.profile").span_id
        );
        assert_eq!(
            by_name("engine.launch").parent_id,
            by_name("serve.simulate").span_id
        );
        assert!(by_name("engine.launch")
            .tags
            .iter()
            .any(|(k, _)| *k == "memo_misses"));
    }

    #[test]
    fn device_subset_gates_the_service() {
        let dir = fresh_store_dir("subset");
        let svc = ProfileService::with_registry(
            Some(dir.clone()),
            &["rtx-3060".to_owned(), "uhd-630".to_owned()],
            &MetricsRegistry::new(),
        )
        .expect("subset service");
        assert_eq!(svc.modeled(), ["rtx-3060", "uhd-630"]);
        assert!(svc.models("rtx-3060"));
        assert!(svc.models("UHD-630"), "case-insensitive");
        assert!(!svc.models("rtx-3080"));

        // A triple for an unmodeled (but valid) device resolves, then the
        // service refuses it — it must never simulate as if it owned it.
        let t = Triple::resolve("rtx-3080", "tiny", "GMS").expect("catalog-valid");
        let err = svc.profile(&t, None).expect_err("not modeled here");
        assert!(err.contains("not modeled"), "{err}");
        assert_eq!(svc.simulations(), 0);

        // A modeled device simulates normally.
        let t = Triple::resolve("rtx-3060", "tiny", "GMS").expect("resolve");
        let (_, source) = svc.profile(&t, None).expect("modeled device");
        assert_eq!(source, ProfileSource::Simulated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The store admits one writer per directory: a second service on it
    /// is an error naming the store, not a panic.
    #[test]
    fn a_second_service_on_the_same_store_is_an_error() {
        let dir = fresh_store_dir("locked");
        let first = ProfileService::new(Some(dir.clone())).expect("open service");
        let err = match ProfileService::new(Some(dir.clone())) {
            Ok(_) => panic!("the store is held by the first service"),
            Err(e) => e,
        };
        assert!(err.contains("profile store"), "{err}");
        assert!(err.contains(&dir.display().to_string()), "{err}");
        drop(first);
        ProfileService::new(Some(dir.clone())).expect("reopens once released");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_config_device_fails_construction() {
        let dir = fresh_store_dir("bad-config");
        let err = match ProfileService::with_registry(
            Some(dir.clone()),
            &["rtx-9090".to_owned()],
            &MetricsRegistry::new(),
        ) {
            Ok(_) => panic!("unknown id must be rejected"),
            Err(e) => e,
        };
        assert!(err.contains("rtx-9090"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seed `dir` with `profile` under `key` at `version`, the way an
    /// earlier run (or a replication push) leaves a store.
    fn seed(dir: &std::path::Path, key: &str, version: u32, profile: &Profile) {
        Store::open(dir)
            .expect("open store")
            .append(
                key,
                version,
                profile_store::write_profile(profile).as_bytes(),
            )
            .expect("seed store");
    }

    /// A record under the serving key at the catalog's record version is
    /// served without simulating, bit-identically.
    #[test]
    fn store_level_is_consulted_before_simulation() {
        let dir = fresh_store_dir("store-level");
        // A tiny-simulated stand-in under the rtx-3080/profile key, which
        // is what we request back.
        let seeded = cactus_core::run("GMS", SuiteScale::Tiny);
        let entry = catalog::by_id("rtx-3080").expect("catalog id");
        seed(
            &dir,
            "rtx-3080/profile/GMS",
            entry.record_version(),
            &seeded,
        );

        let svc = ProfileService::new(Some(dir.clone())).expect("open service");
        let t = Triple::resolve("rtx-3080", "profile", "GMS").expect("resolve");
        let (p, source) = svc.profile(&t, None).expect("profile");
        assert_eq!(source, ProfileSource::Store);
        assert_eq!(p.profile, seeded);
        assert_eq!(svc.store_hits(), 1);
        assert_eq!(svc.simulations(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rewrite the first kernel line of `doc` field by field.
    fn mutate_first_kernel(doc: &str, edit: impl Fn(&mut Vec<String>)) -> String {
        let mut done = false;
        doc.split_inclusive('\n')
            .map(|line| {
                if done || !line.starts_with("k\t") {
                    return line.to_owned();
                }
                done = true;
                let mut fields: Vec<String> = line
                    .trim_end_matches('\n')
                    .split('\t')
                    .map(str::to_owned)
                    .collect();
                edit(&mut fields);
                format!("{}\n", fields.join("\t"))
            })
            .collect()
    }

    /// `/v1/profile` serves stored bytes as they are, so ingest admits only
    /// the bytes `write_profile` would render: every way a document can
    /// parse to the same profile and still differ is refused with nothing
    /// appended, and the document itself still stores.
    #[test]
    fn ingest_refuses_every_non_canonical_spelling_of_a_profile() {
        let dir = fresh_store_dir("canonical");
        let svc = ProfileService::new(Some(dir.clone())).expect("open service");
        let doc = profile_store::write_profile(&cactus_core::run("GMS", SuiteScale::Tiny));
        let mut lines: Vec<&str> = doc.split_inclusive('\n').collect();
        lines.swap(2, 3);
        let mutations = [
            ("trailing line", format!("{doc}one more line\n")),
            ("crlf", doc.replace('\n', "\r\n")),
            (
                "upper-case hex",
                mutate_first_kernel(&doc, |f| f[3] = f[3].to_ascii_uppercase()),
            ),
            (
                "plus-prefixed integer",
                mutate_first_kernel(&doc, |f| f[2].insert(0, '+')),
            ),
            (
                "zero-padded integer",
                mutate_first_kernel(&doc, |f| f[4].insert(0, '0')),
            ),
            ("kernels out of dominance order", lines.concat()),
        ];
        for (what, body) in &mutations {
            assert_ne!(*body, doc, "{what}: the mutation changed nothing");
            let err = svc
                .ingest_record("rtx-3080/tiny/GMS", body)
                .expect_err(what);
            assert!(
                err.contains("not a canonical profile document") || err.contains("not a profile"),
                "{what}: {err}"
            );
            assert_eq!(svc.store().stats().appends, 0, "{what}: nothing appended");
        }
        // Every mutation but the trailing line parses to the same profile:
        // only the byte comparison tells them from the real thing.
        let parsed = profile_store::read_profile(&doc).expect("parses");
        for (what, body) in &mutations[1..] {
            assert_eq!(
                profile_store::read_profile(body).as_ref(),
                Ok(&parsed),
                "{what}"
            );
        }

        svc.ingest_record("rtx-3080/tiny/GMS", &doc)
            .expect("the canonical document stores");
        assert_eq!(svc.store().stats().appends, 1);
        let t = Triple::resolve("rtx-3080", "tiny", "GMS").expect("resolve");
        let (resolved, source) = svc.profile(&t, None).expect("profile");
        assert_eq!(source, ProfileSource::Store);
        assert_eq!(resolved.document, doc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A CRC-valid record that does not parse is a miss, not a body: the
    /// document is only ever served beside its own successful parse.
    #[test]
    fn an_unparseable_record_is_a_miss_that_resimulates() {
        let dir = fresh_store_dir("unparseable");
        let t = Triple::resolve("rtx-3080", "tiny", "GMS").expect("resolve");
        let entry = catalog::by_id("rtx-3080").expect("catalog id");
        let good = profile_store::write_profile(&cactus_core::run("GMS", SuiteScale::Tiny));
        {
            let store = Store::open(&dir).expect("open store");
            store
                .append(
                    &t.key(),
                    entry.record_version(),
                    format!("{good}trailing\n").as_bytes(),
                )
                .expect("seed store");
        }
        let svc = ProfileService::new(Some(dir.clone())).expect("open service");
        let (resolved, source) = svc.profile(&t, None).expect("profile");
        assert_eq!(source, ProfileSource::Simulated);
        assert_eq!(resolved.document, good);
        assert_eq!((svc.store_hits(), svc.simulations()), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Only the catalog's record version is current: the same bytes one
    /// version on (a bumped model or device revision) are a store miss.
    #[test]
    fn other_record_versions_are_store_misses() {
        let dir = fresh_store_dir("stale-version");
        let t = Triple::resolve("rtx-3080", "tiny", "GMS").expect("resolve");
        let entry = catalog::by_id("rtx-3080").expect("catalog id");
        let profile = cactus_core::run("GMS", SuiteScale::Tiny);
        seed(&dir, &t.key(), entry.record_version() + 1, &profile);

        let svc = ProfileService::new(Some(dir.clone())).expect("open service");
        let (p, source) = svc.profile(&t, None).expect("profile");
        assert_eq!(source, ProfileSource::Simulated);
        assert_eq!(p.profile, profile);
        assert_eq!(svc.store_hits(), 0);
        // The fresh append superseded the stale record.
        let record = svc.store().get(&t.key()).expect("get").expect("present");
        assert_eq!(record.version, entry.record_version());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
