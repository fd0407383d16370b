//! Control fixture: sync.rs is where the fleet's repair decision lives.

fn repair(router: &Router, text: &str) -> bool {
    cactus_store::parse_manifest(text).is_some() && router.push_record(0, "k", "", None)
}
