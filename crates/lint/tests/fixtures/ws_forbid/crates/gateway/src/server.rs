//! Seeded-bad fixture: a second accept loop outside the daemon skeleton.

fn accept_loop() {}

fn readmit(router: &Router) -> bool {
    router.push_record(0, "k", "", None)
}

fn announce(addr: std::net::SocketAddr) {
    let _ = cactus_serve::Client::new(addr).get("/v1/healthz");
}

fn health_loop(stop: &std::sync::atomic::AtomicBool) {
    while !stop.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}
