//! Seeded-bad fixture: a second accept loop outside the daemon skeleton.

fn accept_loop() {}
