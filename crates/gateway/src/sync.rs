//! Store replication and repair across the backend fleet.
//!
//! The gateway treats each backend's embedded `cactus-store` as one replica
//! of a fleet-wide keyspace. One path copies records between replicas: the
//! repair pass (`repair`), run by the health thread after every probe
//! round over the backends available then. It reads each one's manifest
//! and makes the pushes `plan` decides: it fills a replica slot that lacks
//! the record or raises a lower version, for *settled* keys only — those
//! whose highest version the reachable backends hold with one CRC. A freshly
//! simulated profile therefore reaches its follower one probe round after
//! the owner stored it, and a replica that was down is refilled one round
//! after it answers again. Serving a profile copies nothing.
//!
//! A pass moves records through the two control-plane primitives
//! (`Router::fetch` / `Router::push_record`) under one `store.sync` span,
//! and counts each push as a replication or a failure.
//!
//! `fleet_manifest` renders the same `plan` at `/v1/store/manifest`:
//! per-backend digests, a per-key replica/holder matrix, `missing <n>`
//! (the pushes the plan makes) and `unsettled <n>` (the keys it leaves
//! alone). `missing 0` is the fleet's convergence check.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;

use cactus_obs::{TraceId, Tracer};
use cactus_store::{manifest_digest, parse_manifest, Entry};

use crate::proxy::Router;

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
/// An unsettled key — two definitions tied at one version — is left for a
/// re-submission to resolve.
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
        let settled = held.iter().all(|&(_, v, c)| v < version || c == crc);
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

/// The replica set of a profile key: `<device>/<scale>/<workload>`, plus
/// `@<digest>` for a submitted workload, which is dropped so the record
/// replicates to the owners of the routes its triple is read on.
fn profile_replicas(router: &Router) -> impl Fn(&str) -> Vec<usize> + '_ {
    |key| router.replica_set(key.split_once('@').map_or(key, |(triple, _)| triple))
}

/// One repair pass over the backends available now: make the pushes
/// `plan` decides, under one `store.sync` span with a freshly minted trace
/// when there are any. Each push that lands counts as a replication; a
/// failed source read or push counts as a replication failure and is
/// tagged `failed` on the span.
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
    let trace = Some(span.ctx().trace());
    let (mut pushed, mut failed) = (0u64, 0u64);
    for row in plan.rows.iter().filter(|r| !r.push_to.is_empty()) {
        let path = format!("/v1/store/record/{}", row.key);
        let Some(body) = row
            .have
            .first()
            .and_then(|&i| router.fetch(i, &path, trace))
        else {
            failed += 1;
            continue;
        };
        for &to in &row.push_to {
            if router.push_record(to, &row.key, &body, trace) {
                pushed += 1;
            } else {
                failed += 1;
            }
        }
    }
    router.metrics.store_replications.add(pushed);
    router.metrics.store_replication_failures.add(failed);
    span.tag("pushed", pushed);
    span.tag("failed", failed);
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

    const PROFILE: &str = "rtx-3080/tiny/GMS";
    const WIR: &str = "wir/x";

    /// What one backend may hold of a key: absent, two definitions tied at
    /// version 1, and a higher version.
    const HOLDINGS: [Option<(u32, u32)>; 4] =
        [None, Some((1, 0xa)), Some((1, 0xb)), Some((2, 0xa))];

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
        // P1: a push carries the key's highest record, and only fills a
        // gap or raises a lower version.
        for push @ (key, from, to) in pushes(&plan) {
            let (version, crc) = held(manifests, from, key).expect("source");
            let r = row(key);
            assert!(
                r.settled && (version, crc) == (r.version, r.crc),
                "{push:?}"
            );
            assert!(
                manifests[to].is_some(),
                "{push:?} to an unreachable backend"
            );
            if let Some((v, _)) = held(manifests, to, key) {
                assert!(v < version, "{push:?} lands on v{v} in {manifests:?}");
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
        assert_eq!(planned, 4 * 5 * 5 * 5);
    }

    /// Two keys on one fleet plan exactly as each key alone.
    #[test]
    fn keys_are_planned_independently() {
        let mut states = vec![None];
        for p in HOLDINGS {
            for w in HOLDINGS {
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

    /// A submitted workload's record replicates to the owners of the route
    /// its triple is read on: the digest is not part of the ring key.
    #[test]
    fn a_digest_keyed_record_replicates_with_its_route() {
        let addrs: Vec<SocketAddr> = (0..4)
            .map(|i| format!("127.0.0.1:{}", 1 + i).parse().expect("addr"))
            .collect();
        let labels: Vec<String> = addrs.iter().map(ToString::to_string).collect();
        let router = Router::new(
            crate::ring::HashRing::new(&labels),
            std::sync::Arc::new(crate::health::HealthTracker::new(
                4,
                2,
                std::time::Duration::from_secs(60),
            )),
            std::sync::Arc::new(crate::connpool::ConnPool::new(addrs)),
            std::sync::Arc::new(crate::metrics::GatewayMetrics::new(4)),
            None,
        );
        let replicas = profile_replicas(&router);
        for name in ["gnn", "swap", "x"] {
            let route = router.replica_set(&format!("rtx-3080/tiny/{name}"));
            assert_eq!(replicas(&format!("rtx-3080/tiny/{name}")), route);
            assert_eq!(
                replicas(&format!("rtx-3080/tiny/{name}@0123456789abcdef")),
                route
            );
        }
    }
}
