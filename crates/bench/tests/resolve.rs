//! The fig/table resolver misses per member: a set with one stale record
//! costs one simulation, and every other member loads from the store.

use cactus_bench::resolve_on;
use cactus_core::SuiteScale;
use cactus_gpu::catalog;
use cactus_profiler::store::write_profile;
use cactus_serve::service::ProfileService;
use cactus_store::Store;

const SET: [(&str, &str, &str); 3] = [
    ("rtx-3080", "tiny", "GMS"),
    ("rtx-3080", "tiny", "GST"),
    ("rtx-3080", "tiny", "bfs"),
];

#[test]
fn one_stale_member_resimulates_alone() {
    let dir = std::env::temp_dir().join(format!("cactus-bench-resolve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let first = {
        let service = ProfileService::new(Some(dir.clone())).expect("open service");
        let profiles = resolve_on(&service, &SET);
        assert_eq!((service.simulations(), service.store_hits()), (3, 0));
        profiles
    };
    assert_eq!(first[0], cactus_core::run("GMS", SuiteScale::Tiny));

    // GST re-recorded at another version: stale for the current model.
    let entry = catalog::by_id("rtx-3080").expect("catalog id");
    Store::open(&dir)
        .expect("open store")
        .append(
            "rtx-3080/tiny/GST",
            entry.record_version() + 1,
            write_profile(&first[1]).as_bytes(),
        )
        .expect("append");

    let service = ProfileService::new(Some(dir.clone())).expect("reopen service");
    let second = resolve_on(&service, &SET);
    assert_eq!(service.simulations(), 1, "only the stale member simulates");
    assert_eq!(service.store_hits(), 2, "every other member is a store hit");
    assert_eq!(second, first);
    let record = service
        .store()
        .get("rtx-3080/tiny/GST")
        .expect("get")
        .expect("present");
    assert_eq!(
        record.version,
        entry.record_version(),
        "stale record superseded"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
