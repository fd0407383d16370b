//! Store replication and repair across the backend fleet.
//!
//! The gateway treats each backend's embedded `cactus-store` as one replica
//! of a fleet-wide keyspace. Two paths copy records between replicas:
//!
//! * **The write path** (`replicate_after_forward`) — after a profile
//!   request is answered with a `200` by some backend, that backend
//!   durably holds the record. The gateway fetches the raw record bytes
//!   back over `GET /v1/store/record/<key>` and pushes them to every other
//!   member of the key's replica set that is currently routable, so losing
//!   the owner does not lose the profile. A per-process seen-set
//!   de-duplicates repeat reads.
//! * **The repair pass** (`repair`) — after every probe round the health
//!   thread reads each available backend's manifest and makes the pushes
//!   `plan` decides: it fills a replica slot that lacks the record or
//!   raises a lower version, for *settled* keys only — no reachable
//!   backend holds the key at version 0 (the tombstone a workload
//!   re-submission writes) and its highest version has one CRC. So what a
//!   write-path push missed is refilled one round after the target answers.
//!
//! Both paths move records through the same two control-plane primitives
//! (`Router::fetch` / `Router::push_record`) and file `store.sync` spans
//! tagged with their `mode`, so `/v1/tracez` distinguishes a write-path
//! copy from a repair.
//!
//! `fleet_manifest` renders the same `plan` at `/v1/store/manifest`:
//! per-backend digests, a per-key replica/holder matrix, `missing <n>`
//! (the pushes the plan makes) and `unsettled <n>` (the keys it leaves
//! alone). `missing 0` is the fleet's convergence check.

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
        span.tag("pushed", pushed);
    }
}

/// One key's line on the fleet manifest page, and its pushes: the highest
/// version, the CRC of that version's lowest-indexed holder, the replica
/// set, the reachable backends that hold that exact record (the first is
/// the pushes' source), and the backends the record is pushed to.
#[derive(Debug, PartialEq, Eq)]
struct Row {
    key: String,
    version: u32,
    crc: u32,
    replicas: Vec<usize>,
    have: Vec<usize>,
    settled: bool,
    push_to: Vec<usize>,
}

/// What the fleet's stores say should be copied, one row per key.
#[derive(Debug, Default)]
struct Plan {
    rows: Vec<Row>,
}

impl Plan {
    /// The pushes: replica slots on reachable backends that lack a record.
    fn missing(&self) -> usize {
        self.rows.iter().map(|r| r.push_to.len()).sum()
    }

    /// Keys left alone because the reachable stores disagree on them.
    fn unsettled(&self) -> usize {
        self.rows.iter().filter(|r| !r.settled).count()
    }
}

/// The fleet's one repair decision, from each backend's manifest (`None`
/// when unreachable) and the replica set of a profile key. A settled key
/// (module doc) is pushed from its lowest-indexed holder to each reachable
/// replica (every backend for a `wir/` key) that lacks its highest record.
/// An unsettled key — two definitions tied at one version, or a record
/// beside a tombstone — is left for a re-submission to resolve.
fn plan(manifests: &[Option<Vec<Entry>>], replica_set: impl Fn(&str) -> Vec<usize>) -> Plan {
    let mut holdings: BTreeMap<&str, Vec<(usize, u32, u32)>> = BTreeMap::new();
    for (i, entries) in manifests.iter().enumerate() {
        for e in entries.iter().flatten() {
            holdings
                .entry(&e.key)
                .or_default()
                .push((i, e.version, e.crc));
        }
    }
    let mut plan = Plan::default();
    for (key, held) in holdings {
        // The last maximum of the reversed list: the lowest-indexed holder.
        let Some(&(_, version, crc)) = held.iter().rev().max_by_key(|h| h.1) else {
            continue;
        };
        let settled = held
            .iter()
            .all(|&(_, v, c)| v != 0 && (v < version || c == crc));
        let have: Vec<usize> = held
            .iter()
            .filter(|&&(_, v, c)| (v, c) == (version, crc))
            .map(|&(i, _, _)| i)
            .collect();
        let replicas = if key.starts_with("wir/") {
            (0..manifests.len()).collect()
        } else {
            replica_set(key)
        };
        let push_to = replicas
            .iter()
            .copied()
            .filter(|&i| {
                settled && !have.contains(&i) && manifests.get(i).is_some_and(Option::is_some)
            })
            .collect();
        plan.rows.push(Row {
            key: key.to_owned(),
            version,
            crc,
            replicas,
            have,
            settled,
            push_to,
        });
    }
    plan
}

/// Each backend's store manifest, `None` when `ask(i)` is false or it
/// cannot be fetched or read.
fn manifests(router: &Router, ask: impl Fn(usize) -> bool) -> Vec<Option<Vec<Entry>>> {
    let read = |i| parse_manifest(&router.fetch(i, "/v1/store/manifest", None)?);
    (0..router.metrics.backends.len())
        .map(|i| ask(i).then(|| read(i)).flatten())
        .collect()
}

/// The replica set of a profile key (`<device>/<scale>/<workload>`).
fn profile_replicas(router: &Router) -> impl Fn(&str) -> Vec<usize> + '_ {
    |key| router.replica_set(&format!("profile/{key}"))
}

/// One repair pass over the backends available now: make the pushes
/// `plan` decides, under one `store.sync` span (mode `repair`) with a
/// freshly minted trace when there are any.
pub(crate) fn repair(router: &Router, tracer: &Tracer) {
    router.metrics.store_syncs.inc();
    let plan = plan(
        &manifests(router, |i| router.health.available(i)),
        profile_replicas(router),
    );
    if plan.missing() == 0 {
        return;
    }
    let mut span = tracer.ctx(TraceId::mint()).child("store.sync");
    span.tag("mode", "repair");
    let trace = Some(span.ctx().trace());
    let mut pushed = 0u64;
    for row in &plan.rows {
        let path = format!("/v1/store/record/{}", row.key);
        let source = row.have.first().filter(|_| !row.push_to.is_empty());
        let Some(body) = source.and_then(|&i| router.fetch(i, &path, trace)) else {
            continue;
        };
        for &to in &row.push_to {
            if router.push_record(to, &row.key, &body, trace) {
                pushed += 1;
                router.metrics.store_sync_records.inc();
            }
        }
    }
    span.tag("pushed", pushed);
}

/// The gateway's `/v1/store/manifest`, rendered from the `plan` over every
/// backend that gives a manifest now: one `backend` line per ring slot,
/// one `k` line per key (replica set and holders), then `missing <n>` and
/// `unsettled <n>`. `missing 0` with every backend reachable means the
/// fleet has converged.
#[must_use]
pub(crate) fn fleet_manifest(router: &Router, backend_addrs: &[SocketAddr]) -> String {
    let mut out = String::from("cactus-gateway store manifest v1\n");
    // Reachability is "gave us a parseable manifest just now", not the
    // health state: a half-open backend counts, a hung-but-Healthy one
    // doesn't. That keeps `missing` honest about what is actually on disk.
    let manifests = manifests(router, |_| true);
    for ((i, addr), entries) in backend_addrs.iter().enumerate().zip(&manifests) {
        let state = if router.health.available(i) {
            "healthy"
        } else {
            "down"
        };
        let (digest, count) = match entries {
            Some(e) => (format!("{:016x}", manifest_digest(e)), e.len().to_string()),
            None => ("-".to_owned(), "-".to_owned()),
        };
        let _ = writeln!(
            out,
            "backend {i} {addr} {state} digest={digest} entries={count}"
        );
    }
    let plan = plan(&manifests, profile_replicas(router));
    for row in &plan.rows {
        let _ = writeln!(
            out,
            "k {} v{} crc={:08x} replicas={} have={}",
            row.key,
            row.version,
            row.crc,
            join_indices(&row.replicas),
            join_indices(&row.have)
        );
    }
    let _ = writeln!(out, "missing {}", plan.missing());
    let _ = writeln!(out, "unsettled {}", plan.unsettled());
    out
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

    const PROFILE: &str = "rtx-3080/tiny/GMS";
    const WIR: &str = "wir/x";

    /// What one backend may hold of a key: absent, the tombstone, two
    /// definitions tied at version 1, and a higher version.
    const HOLDINGS: [Option<(u32, u32)>; 5] = [
        None,
        Some((0, 0xdead)),
        Some((1, 0xa)),
        Some((1, 0xb)),
        Some((2, 0xa)),
    ];

    type Manifests = Vec<Option<Vec<Entry>>>;

    fn entry(key: &str, (version, crc): (u32, u32)) -> Entry {
        Entry {
            key: key.to_owned(),
            version,
            crc,
        }
    }

    fn held(manifests: &Manifests, i: usize, key: &str) -> Option<(u32, u32)> {
        manifests[i]
            .as_ref()?
            .iter()
            .find(|e| e.key == key)
            .map(|e| (e.version, e.crc))
    }

    /// Every push of `plan` as `(key, source, target)`.
    fn pushes(plan: &Plan) -> Vec<(&str, usize, usize)> {
        let mut out = Vec::new();
        for r in &plan.rows {
            out.extend(r.push_to.iter().map(|&to| (r.key.as_str(), r.have[0], to)));
        }
        out
    }

    /// The fleet after every push of `plan`: each target holds its
    /// source's record.
    fn apply(manifests: &Manifests, plan: &Plan) -> Manifests {
        let mut out = manifests.clone();
        for (key, from, to) in pushes(plan) {
            let record = held(manifests, from, key).expect("source holds the key");
            let target = out[to].as_mut().expect("targets are reachable");
            target.retain(|e| e.key != key);
            target.push(entry(key, record));
        }
        out
    }

    /// Plan `manifests` and assert P1–P4.
    fn checked(manifests: &Manifests, replicas: &dyn Fn(&str) -> Vec<usize>) -> Plan {
        let plan = plan(manifests, replicas);
        let row = |key: &str| plan.rows.iter().find(|r| r.key == key).expect("row");
        // P1: a push carries the key's highest record, never a tombstone,
        // and only fills a gap or raises a live version.
        for push @ (key, from, to) in pushes(&plan) {
            let (version, crc) = held(manifests, from, key).expect("source");
            let r = row(key);
            assert!(
                r.settled && (version, crc) == (r.version, r.crc),
                "{push:?}"
            );
            assert_ne!(version, 0, "{push:?} writes a tombstone");
            assert!(
                manifests[to].is_some(),
                "{push:?} to an unreachable backend"
            );
            if let Some((v, _)) = held(manifests, to, key) {
                assert!(
                    v != 0 && v < version,
                    "{push:?} lands on v{v} in {manifests:?}"
                );
            }
        }
        // P2: once applied, nothing is left to push.
        let after = apply(manifests, &plan);
        let again = super::plan(&after, replicas);
        assert_eq!(again.missing(), 0, "{manifests:?} -> {after:?}: {again:?}");
        // P3: `missing` is the pushes, and the rows agree.
        let empty_slots: usize = plan
            .rows
            .iter()
            .filter(|r| r.settled)
            .map(|r| {
                r.replicas
                    .iter()
                    .filter(|&&i| manifests[i].is_some() && !r.have.contains(&i))
                    .count()
            })
            .sum();
        assert_eq!(plan.missing(), pushes(&plan).len());
        assert_eq!(plan.missing(), empty_slots, "{manifests:?}");
        // P4: every reachable replica slot of a settled key holds its
        // highest record.
        for r in plan.rows.iter().filter(|r| r.settled) {
            for &i in r.replicas.iter().filter(|&&i| manifests[i].is_some()) {
                assert_eq!(held(&after, i, &r.key), Some((r.version, r.crc)), "{r:?}");
            }
        }
        plan
    }

    /// P5: backend `i` renamed `perm[i]` plans the same records and counts.
    fn assert_relabelling_invariant(
        manifests: &Manifests,
        replicas: &dyn Fn(&str) -> Vec<usize>,
        plan: &Plan,
    ) {
        for perm in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let mut renamed = vec![None; manifests.len()];
            for (i, m) in manifests.iter().enumerate() {
                renamed[perm[i]] = m.clone();
            }
            let renamed_replicas = |key: &str| replicas(key).into_iter().map(|i| perm[i]).collect();
            let other = checked(&renamed, &renamed_replicas);
            assert_eq!(other.missing(), plan.missing(), "{perm:?} {manifests:?}");
            assert_eq!(
                other.unsettled(),
                plan.unsettled(),
                "{perm:?} {manifests:?}"
            );
            for (a, b) in plan.rows.iter().zip(&other.rows) {
                assert_eq!(a.settled, b.settled);
                if a.settled {
                    assert_eq!((a.version, a.crc), (b.version, b.crc), "{perm:?}");
                }
            }
            let targets = |p: &Plan, map: &dyn Fn(usize) -> usize| {
                let mut t: Vec<(String, usize)> = pushes(p)
                    .into_iter()
                    .map(|(key, _, to)| (key.to_owned(), map(to)))
                    .collect();
                t.sort();
                t
            };
            assert_eq!(targets(plan, &|i| perm[i]), targets(&other, &|i| i));
        }
    }

    /// Every one-key fleet of 3 backends: each backend unreachable or
    /// holding one of `HOLDINGS`, for each replica pair of a profile key
    /// and for a `wir/` key (every backend).
    #[test]
    fn plan_is_safe_convergent_and_label_free_on_every_small_fleet() {
        let states: Vec<Option<Option<(u32, u32)>>> = std::iter::once(None)
            .chain(HOLDINGS.iter().map(|&h| Some(h)))
            .collect();
        let cases: [(&str, Vec<usize>); 4] = [
            (PROFILE, vec![0, 1]),
            (PROFILE, vec![0, 2]),
            (PROFILE, vec![1, 2]),
            (WIR, Vec::new()),
        ];
        let mut planned = 0;
        for (key, pair) in &cases {
            let replicas = |_: &str| pair.clone();
            for a in &states {
                for b in &states {
                    for c in &states {
                        let manifests: Manifests = [a, b, c]
                            .iter()
                            .map(|s| s.map(|h| h.map(|h| entry(key, h)).into_iter().collect()))
                            .collect();
                        let plan = checked(&manifests, &replicas);
                        assert_relabelling_invariant(&manifests, &replicas, &plan);
                        planned += 1;
                    }
                }
            }
        }
        assert_eq!(planned, 4 * 6 * 6 * 6);
    }

    /// Two keys on one fleet plan exactly as each key alone.
    #[test]
    fn keys_are_planned_independently() {
        let holdings = &HOLDINGS[..4];
        let mut states = vec![None];
        for &p in holdings {
            for &w in holdings {
                states.push(Some((p, w)));
            }
        }
        let replicas = |_: &str| vec![0, 1];
        let only = |manifests: &Manifests, key: &str| -> Manifests {
            manifests
                .iter()
                .map(|m| {
                    m.as_ref()
                        .map(|m| m.iter().filter(|e| e.key == key).cloned().collect())
                })
                .collect()
        };
        for a in &states {
            for b in &states {
                for c in &states {
                    let manifests: Manifests = [a, b, c]
                        .iter()
                        .map(|s| {
                            s.map(|(p, w)| {
                                let p = p.map(|h| entry(PROFILE, h));
                                let w = w.map(|h| entry(WIR, h));
                                p.into_iter().chain(w).collect()
                            })
                        })
                        .collect();
                    let both = checked(&manifests, &replicas);
                    let alone: Vec<Row> = [PROFILE, WIR]
                        .into_iter()
                        .flat_map(|key| plan(&only(&manifests, key), replicas).rows)
                        .collect();
                    assert_eq!(both.rows, alone, "{manifests:?}");
                }
            }
        }
    }

    /// Every re-submission stores its definition at the same format
    /// version, so a backend that missed one ties with the rest: copying
    /// either definition could overwrite the newer one.
    #[test]
    fn a_wir_tie_between_two_definitions_is_left_alone() {
        let manifests = vec![
            Some(vec![entry(WIR, (1, 0xa))]),
            Some(vec![entry(WIR, (1, 0xb))]),
            Some(Vec::new()),
        ];
        let plan = plan(&manifests, |_| Vec::new());
        assert_eq!(plan.missing(), 0, "{plan:?}");
        assert_eq!(plan.unsettled(), 1);
    }

    /// A tombstone says the profile next to it was superseded: repairing
    /// either slot would bring the superseded profile back.
    #[test]
    fn a_tombstone_next_to_a_live_version_is_left_alone() {
        let manifests = vec![
            Some(vec![entry(PROFILE, (0, 0xdead))]),
            Some(vec![entry(PROFILE, (2001, 0xa))]),
            Some(Vec::new()),
        ];
        let plan = plan(&manifests, |_| vec![0, 2]);
        assert_eq!(plan.missing(), 0, "{plan:?}");
        assert_eq!(plan.unsettled(), 1);
    }
}
