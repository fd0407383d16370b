//! Seeded-bad fixture: a second accept loop outside the daemon skeleton.

fn accept_loop() {}

fn readmit(router: &Router) -> bool {
    router.push_record(0, "k", "", None)
}
