//! The shared profile store: simulate the suite once, reuse everywhere.
//!
//! Every fig/table binary consumes the same two profile sets — the Cactus
//! suite and the Parboil/Rodinia/Tango comparison set, both at Profile
//! scale on the paper's RTX 3080. Re-simulating them in each binary
//! dominated wall-clock time, so they are read through the one durable
//! store the serving tier uses: a [`cactus_store::Store`] rooted at
//! [`cactus_store::default_dir`], holding one record per workload under
//! exactly the key, version and value bytes `cactus-serve` writes —
//!
//! ```text
//! key      rtx-3080/profile/<name>
//! version  CatalogEntry::record_version()   (model version + device rev)
//! value    cactus_profiler::store::write_profile (bit-exact text)
//! ```
//!
//! — so a profile the daemon simulated is a hit for `fig3`, and `profiles`
//! output is a hit for the daemon.
//!
//! [`cactus_profiles_cached`] / [`prt_profiles_cached`] walk their set's
//! members in catalog order (known without simulating) and return the
//! stored profiles when every member is present, current and parses. Any
//! miss, stale version or corrupt record re-simulates the whole set (in
//! parallel) and appends every member over whatever was there. Pass
//! `--no-cache` to any binary (or set `CACTUS_NO_CACHE=1`) to skip the read
//! and force that re-simulation. The store admits one writer per
//! directory: when a running daemon (or another binary) holds it, the sets
//! are simulated and not cached, with a note on stderr.

use crate::ProfiledWorkload;
use cactus_gpu::catalog::{self, CatalogEntry};
use cactus_profiler::store::{read_profile, write_profile};
use cactus_store::Store;

/// Environment variable forcing re-simulation (any non-empty value but `0`).
pub const NO_CACHE_ENV: &str = "CACTUS_NO_CACHE";

/// The scale both cached sets are simulated at, as the serving key spells it.
const SCALE_SLUG: &str = "profile";

/// True when the caller asked to bypass the store: `--no-cache` on the
/// command line or [`NO_CACHE_ENV`] in the environment.
#[must_use]
pub fn no_cache_requested() -> bool {
    std::env::args().any(|a| a == "--no-cache")
        || std::env::var(NO_CACHE_ENV).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Cactus-suite profiles at Profile scale, via the store.
#[must_use]
pub fn cactus_profiles_cached() -> Vec<ProfiledWorkload> {
    cached(&cactus_members(), crate::cactus_profiles)
}

/// Comparison-suite (PRT) profiles at Profile scale, via the store.
#[must_use]
pub fn prt_profiles_cached() -> Vec<ProfiledWorkload> {
    cached(&prt_members(), crate::prt_profiles)
}

/// `(suite, name)` of every Cactus workload, in the order
/// [`crate::cactus_profiles`] returns them.
#[must_use]
pub fn cactus_members() -> Vec<(String, String)> {
    cactus_core::suite()
        .into_iter()
        .map(|w| ("Cactus".to_owned(), w.abbr.to_owned()))
        .collect()
}

/// `(suite, name)` of every comparison benchmark, in the order
/// [`crate::prt_profiles`] returns them.
#[must_use]
pub fn prt_members() -> Vec<(String, String)> {
    cactus_suites::all()
        .into_iter()
        .map(|b| (b.suite.name().to_owned(), b.name.to_owned()))
        .collect()
}

fn cached(
    members: &[(String, String)],
    compute: fn() -> Vec<ProfiledWorkload>,
) -> Vec<ProfiledWorkload> {
    let dir = cactus_store::default_dir();
    let store = Store::open(&dir)
        .inspect_err(|e| eprintln!("profile store: {e}; simulating without caching"))
        .ok();
    let entry = default_device();
    if !no_cache_requested() {
        if let Some(profiles) = store.as_ref().and_then(|s| load(s, entry, members)) {
            return profiles;
        }
    }
    let profiles = compute();
    if let Some(store) = &store {
        // Superseded records from earlier runs are reclaimed here; the
        // daemon's background compactor does the same for its appends.
        if let Err(e) = save(store, entry, &profiles).and_then(|()| store.maybe_compact()) {
            eprintln!("profile store: could not cache the set: {e}");
        }
    }
    profiles
}

/// The catalog entry the cached fig/table sets are simulated for (the
/// paper's platform).
#[must_use]
pub fn default_device() -> &'static CatalogEntry {
    // lint:allow(no_panic, rtx-3080 is a founding catalog id)
    catalog::by_id("rtx-3080").expect("rtx-3080 is in the catalog")
}

/// The serving key of `entry`'s Profile-scale profile of workload `name`.
fn record_key(entry: &CatalogEntry, name: &str) -> String {
    format!("{}/{SCALE_SLUG}/{name}", entry.id)
}

/// Append every profile under its serving key
/// (`<device>/profile/<name>`) at `entry`'s current record version, in
/// slice order.
///
/// # Errors
///
/// Propagates the first append failure.
pub fn save(
    store: &Store,
    entry: &CatalogEntry,
    profiles: &[ProfiledWorkload],
) -> std::io::Result<()> {
    profiles.iter().try_for_each(|p| {
        store.append(
            &record_key(entry, &p.name),
            entry.record_version(),
            write_profile(&p.profile).as_bytes(),
        )
    })
}

/// Read every member's profile back, in member order. `None` means
/// "simulate instead": a member is absent, was recorded under another
/// record version (a model or device-revision bump, a superseded
/// placeholder), or does not read back as a profile.
#[must_use]
pub fn load(
    store: &Store,
    entry: &CatalogEntry,
    members: &[(String, String)],
) -> Option<Vec<ProfiledWorkload>> {
    members
        .iter()
        .map(|(suite, name)| {
            let key = record_key(entry, name);
            let warn = |reason: &dyn std::fmt::Display| {
                eprintln!("profile store: ignoring {key}: {reason}");
            };
            let record = store.get(&key).inspect_err(|e| warn(e)).ok()??;
            if record.version != entry.record_version() {
                return None;
            }
            let text = String::from_utf8(record.value)
                .inspect_err(|e| warn(e))
                .ok()?;
            let profile = read_profile(&text).inspect_err(|e| warn(e)).ok()?;
            Some(ProfiledWorkload {
                name: name.clone(),
                suite: suite.clone(),
                profile,
                memo: None,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_core::SuiteScale;
    use std::path::PathBuf;

    /// Two suite members, simulated at tiny scale (the store never looks
    /// inside a value, so the scale does not matter).
    fn sample_set() -> Vec<ProfiledWorkload> {
        ["GMS", "GST"]
            .into_iter()
            .map(|name| ProfiledWorkload {
                name: name.to_owned(),
                suite: "Cactus".to_owned(),
                profile: cactus_core::run(name, SuiteScale::Tiny),
                memo: None,
            })
            .collect()
    }

    fn members_of(set: &[ProfiledWorkload]) -> Vec<(String, String)> {
        set.iter()
            .map(|p| (p.suite.clone(), p.name.clone()))
            .collect()
    }

    fn tmp_store(tag: &str) -> (Store, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("cactus-bench-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (Store::open(&dir).expect("open store"), dir)
    }

    /// Round trip, pinned on both sides to what `cactus-serve` reads and
    /// writes: the record sits under the serving key at the catalog's
    /// record version (serve's `store_level_is_consulted_before_simulation`
    /// is the other half), and the loader returns it bit-identically.
    #[test]
    fn save_then_load_is_exact() {
        let (store, dir) = tmp_store("roundtrip");
        let set = sample_set();
        let entry = default_device();
        save(&store, entry, &set).expect("save");

        let record = store.get("rtx-3080/profile/GMS").expect("get");
        let record = record.expect("saved under the serving key");
        assert_eq!(record.version, entry.record_version());
        assert_eq!(record.value, write_profile(&set[0].profile).as_bytes());

        let loaded = load(&store, entry, &members_of(&set)).expect("load");
        assert_eq!(loaded.len(), set.len());
        for (a, b) in loaded.iter().zip(&set) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.suite, b.suite);
            assert_eq!(a.profile, b.profile);
        }
        assert!(cactus_members().contains(&members_of(&set)[0]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_store_is_a_clean_miss() {
        let (store, dir) = tmp_store("missing");
        let set = sample_set();
        assert!(load(&store, default_device(), &members_of(&set)).is_none());
        // One absent member is a miss for the whole set.
        save(&store, default_device(), &set[..1]).expect("save half");
        assert!(load(&store, default_device(), &members_of(&set)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_invalidates() {
        let (store, dir) = tmp_store("version");
        let set = sample_set();
        let entry = default_device();
        save(&store, entry, &set).expect("save");
        // One member re-recorded at another version: stale, so a miss.
        store
            .append(
                "rtx-3080/profile/GST",
                entry.record_version() + 1,
                write_profile(&set[1].profile).as_bytes(),
            )
            .expect("append");
        assert!(load(&store, entry, &members_of(&set)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_profile_invalidates() {
        let (store, dir) = tmp_store("corrupt");
        let set = sample_set();
        let entry = default_device();
        save(&store, entry, &set).expect("save");
        let text = write_profile(&set[0].profile);
        let truncated: String = text
            .lines()
            .take(text.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        store
            .append(
                "rtx-3080/profile/GMS",
                entry.record_version(),
                truncated.as_bytes(),
            )
            .expect("append");
        assert!(load(&store, entry, &members_of(&set)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Per-device revision is part of the record version: a set recorded at
    /// one rev is invisible (clean miss) at another, so retuning one device
    /// never serves its stale profiles.
    #[test]
    fn per_device_rev_keys_the_layout() {
        let (store, dir) = tmp_store("rev-key");
        let set = sample_set();
        let entry = default_device();
        save(&store, entry, &set).expect("save");
        let bumped = CatalogEntry {
            rev: entry.rev + 1,
            ..*entry
        };
        assert!(load(&store, &bumped, &members_of(&set)).is_none());
        assert!(load(&store, entry, &members_of(&set)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
