//! Store replication and anti-entropy repair across the backend fleet.
//!
//! The gateway treats each backend's embedded `cactus-store` as one replica
//! of a fleet-wide keyspace. Two mechanisms keep replicas converged:
//!
//! * **Write-path replication** (`replicate_after_forward`) — after a
//!   profile request is answered with a `200` by some backend, that backend
//!   durably holds the record. The gateway fetches the raw record bytes
//!   back over `GET /v1/store/record/<key>` and pushes them to every other
//!   member of the key's replica set
//!   that is currently routable, so losing the owner does not lose the
//!   profile. A per-process seen-set de-duplicates repeat reads.
//! * **Anti-entropy** (`anti_entropy`) — when an ejected backend passes
//!   its half-open trial and re-enters the fleet, it may have missed writes.
//!   The health thread diffs its store manifest against every live peer's
//!   and streams over each record the re-admitted backend should replicate
//!   but lacks (missing key, or stale version).
//!
//! Both paths move records through the same two control-plane primitives
//! (`Router::fetch` / `Router::push_record`) and file `store.sync` spans
//! tagged with their `mode`, so `/v1/tracez` distinguishes a write-path
//! copy from a repair.
//!
//! `fleet_manifest` renders the combined view at `/v1/store/manifest`:
//! per-backend digests plus a per-key replica/holder matrix whose trailing
//! `missing <n>` line counts replica slots (on reachable backends) that
//! still lack their record — `missing 0` is the fleet's convergence check.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;

use cactus_obs::{SpanCtx, TraceId, Tracer};
use cactus_store::{manifest_digest, parse_manifest, Entry};

use crate::proxy::Router;

/// The store key for a forwarded target path, when that path names a
/// profile triple (`/v1/profile/<device>/<scale>/<workload>`): the triple
/// joined with `/`, exactly the key `cactus-serve` appends under after a
/// simulation, borrowed from `target`. Non-profile paths return `None` —
/// only profile responses imply a freshly stored record worth replicating.
#[must_use]
pub(crate) fn store_key_for(target: &str) -> Option<&str> {
    let path = target.split('?').next().unwrap_or(target);
    // lint:allow(surface, path *prefix* of the served /v1/profile triple route, not a consumed path)
    let rest = path.strip_prefix("/v1/profile/")?;
    let mut parts = rest.split('/');
    let triple = parts.by_ref().take(3).filter(|p| !p.is_empty()).count() == 3;
    (triple && parts.next().is_none()).then_some(rest)
}

/// After backend `winner` answered `target` with a `200`: copy the backing
/// store record to the other replica-set members (skipping unroutable
/// ones), once per key per process lifetime. Runs synchronously on the
/// request path — one pooled GET plus at most one POST per follower, and
/// only the first time a key is served. Every later serve of the key costs
/// one borrowed set lookup: the dedupe check runs before anything else.
pub(crate) fn replicate_after_forward(
    router: &Arc<Router>,
    target: &str,
    winner: usize,
    ctx: Option<SpanCtx<'_>>,
) {
    let Some(key) = store_key_for(target) else {
        return;
    };
    if router.is_replicated(key) {
        return;
    }
    let followers: Vec<usize> = router
        .replica_set(&format!("profile/{key}"))
        .into_iter()
        .filter(|&i| i != winner && router.health.available(i))
        .collect();
    if followers.is_empty() || router.mark_replicated(key) {
        return;
    }
    let trace = ctx.map(|c| c.trace());
    let mut span = ctx.map(|c| c.child("store.sync"));
    if let Some(span) = span.as_mut() {
        span.tag("mode", "replicate");
        span.tag("key", key.to_owned());
    }
    let Some(body) = router.fetch(winner, &format!("/v1/store/record/{key}"), trace) else {
        // The winner answered the profile but not the record read (e.g. it
        // died in between). Un-mark so a later read retries the copy.
        router.unmark_replicated(key);
        if let Some(span) = span.as_mut() {
            span.tag("error", "source read failed");
        }
        return;
    };
    let mut pushed = 0u64;
    for i in followers {
        if router.push_record(i, key, &body, trace) {
            pushed += 1;
            router.metrics.store_replications.inc();
        } else {
            router.metrics.store_replication_failures.inc();
        }
    }
    if let Some(span) = span.as_mut() {
        span.tag("pushed", pushed.to_string());
    }
}

/// Repair one re-admitted backend: diff its manifest against every live
/// peer's and stream over each record it replicates but lacks. Returns the
/// number of records pushed. Called from the health thread with a freshly
/// minted trace so the repair is visible in `/v1/tracez`.
pub(crate) fn anti_entropy(router: &Arc<Router>, tracer: &Tracer, readmitted: usize) -> u64 {
    let n = router.metrics.backends.len();
    let mut span = tracer.ctx(TraceId::mint()).child("store.sync");
    span.tag("mode", "anti-entropy");
    span.tag("backend", readmitted.to_string());
    let trace = Some(span.ctx().trace());
    router.metrics.store_syncs.inc();

    // What the re-admitted backend holds right now. An unreadable manifest
    // aborts the pass (it will re-run on the next re-admission) — guessing
    // "empty" would be correct but wasteful, and the backend just answered
    // a trial request, so unreadable means it flapped again.
    let Some(own) = manifest_of(router, readmitted, trace) else {
        span.tag("error", "manifest unreadable");
        return 0;
    };
    let held: BTreeMap<String, (u32, u32)> = own
        .into_iter()
        .map(|e| (e.key, (e.version, e.crc)))
        .collect();

    // Union the live peers' manifests.
    let mut fleet = Latest::new();
    for peer in 0..n {
        if peer == readmitted || !router.health.available(peer) {
            continue;
        }
        if let Some(entries) = manifest_of(router, peer, trace) {
            latest(&mut fleet, &entries, peer);
        }
    }

    let mut pushed = 0u64;
    for (key, &(version, crc, holder)) in &fleet {
        // Version 0 marks a profile superseded by a workload
        // re-submission; the next request re-simulates it, so there is
        // nothing worth replicating (and the receiver would refuse the
        // placeholder body anyway).
        if version == 0 {
            continue;
        }
        // Workload definitions (`wir/<name>` keys) are broadcast to every
        // backend at submission time, so they replicate unconditionally —
        // this is the repair path for a backend that missed the broadcast.
        // Profiles replicate only to the key's replica set.
        if !key.starts_with("wir/") {
            let ring_key = format!("profile/{key}");
            if !router.replica_set(&ring_key).contains(&readmitted) {
                continue;
            }
        }
        match held.get(key) {
            Some(&(v, c)) if v > version || (v == version && c == crc) => continue,
            _ => {}
        }
        let Some(body) = router.fetch(holder, &format!("/v1/store/record/{key}"), trace) else {
            continue;
        };
        if router.push_record(readmitted, key, &body, trace) {
            pushed += 1;
            router.metrics.store_sync_records.inc();
        }
    }
    span.tag("pushed", pushed.to_string());
    pushed
}

/// Render the fleet-wide store manifest served at the gateway's
/// `/v1/store/manifest`: one `backend` line per ring slot (with its digest
/// when reachable), one `k` line per known key mapping it to its replica
/// set and current holders, and a final `missing <n>` count of replica
/// slots on *reachable* backends that lack their record. `missing 0` with
/// every backend reachable means the fleet has converged.
#[must_use]
pub(crate) fn fleet_manifest(router: &Arc<Router>, backend_addrs: &[SocketAddr]) -> String {
    let n = backend_addrs.len();
    let mut out = String::from("cactus-gateway store manifest v1\n");
    // Reachability is "gave us a parseable manifest just now", not the
    // health state: a half-open backend counts, a hung-but-Healthy one
    // doesn't. That keeps `missing` honest about what is actually on disk.
    let manifests: Vec<Option<Vec<Entry>>> = (0..n).map(|i| manifest_of(router, i, None)).collect();
    for (i, addr) in backend_addrs.iter().enumerate() {
        let state = if router.health.available(i) {
            "healthy"
        } else {
            "down"
        };
        match &manifests[i] {
            Some(entries) => {
                let digest = manifest_digest(entries);
                let _ = writeln!(
                    out,
                    "backend {i} {addr} {state} digest={digest:016x} entries={}",
                    entries.len()
                );
            }
            None => {
                let _ = writeln!(out, "backend {i} {addr} {state} digest=- entries=-");
            }
        }
    }

    // Authoritative view per key (converged replicas agree on the crc).
    let mut keys = Latest::new();
    let mut holders: BTreeMap<(String, u32, u32), Vec<usize>> = BTreeMap::new();
    for (i, manifest) in manifests.iter().enumerate() {
        let Some(entries) = manifest else { continue };
        latest(&mut keys, entries, i);
        for e in entries {
            holders
                .entry((e.key.clone(), e.version, e.crc))
                .or_default()
                .push(i);
        }
    }
    let mut missing = 0usize;
    for (key, &(version, crc, _)) in &keys {
        let replicas = router.replica_set(&format!("profile/{key}"));
        let have = holders
            .get(&(key.clone(), version, crc))
            .cloned()
            .unwrap_or_default();
        missing += replicas
            .iter()
            .filter(|&&r| manifests[r].is_some() && !have.contains(&r))
            .count();
        let _ = writeln!(
            out,
            "k {key} v{version} crc={crc:08x} replicas={} have={}",
            join_indices(&replicas),
            join_indices(&have)
        );
    }
    let _ = writeln!(out, "missing {missing}");
    out
}

/// Backend `i`'s store manifest, `None` when it cannot be fetched or read.
fn manifest_of(router: &Router, i: usize, trace: Option<TraceId>) -> Option<Vec<Entry>> {
    parse_manifest(&router.fetch(i, "/v1/store/manifest", trace)?)
}

/// Per key, the `(version, crc, holder)` of its highest version seen.
type Latest = BTreeMap<String, (u32, u32, usize)>;

/// Fold `holder`'s entries into `seen`: a higher version replaces, a tie
/// keeps the first holder (last-wins, matching the store).
fn latest(seen: &mut Latest, entries: &[Entry], holder: usize) {
    for e in entries {
        if seen.get(&e.key).is_none_or(|&(v, _, _)| v < e.version) {
            seen.insert(e.key.clone(), (e.version, e.crc, holder));
        }
    }
}

fn join_indices(indices: &[usize]) -> String {
    if indices.is_empty() {
        return "-".to_owned();
    }
    indices
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_key_only_matches_profile_triples() {
        assert_eq!(
            store_key_for("/v1/profile/rtx-3080/tiny/GMS"),
            Some("rtx-3080/tiny/GMS")
        );
        assert_eq!(
            store_key_for("/v1/profile/rtx-3080/tiny/GMS?verbose=1"),
            Some("rtx-3080/tiny/GMS"),
            "query strings are stripped"
        );
        assert_eq!(store_key_for("/v1/kernels/rtx-3080/tiny/GMS"), None);
        // lint:allow(surface, deliberately malformed path exercising the rejection branch)
        assert_eq!(store_key_for("/v1/profile/rtx-3080/tiny"), None);
        assert_eq!(store_key_for("/v1/profile/a//c"), None);
        assert_eq!(store_key_for("/v1/workloads"), None);
    }
}
