//! Control fixture: connpool.rs is where the gateway builds a connection to
//! a backend, and test code may dial directly. A deliberate wait carries
//! its reason, and test code may sleep.

fn checkout(addr: std::net::SocketAddr, timeout: std::time::Duration) -> Connection {
    Connection::new(addr, timeout)
}

fn redial(addr: std::net::SocketAddr, timeout: std::time::Duration) -> Connection {
    // lint:allow(no_tick_loop, a backoff before the second dial)
    std::thread::sleep(std::time::Duration::from_millis(10));
    Connection::new(addr, timeout)
}

#[cfg(test)]
mod tests {
    fn direct(addr: std::net::SocketAddr) {
        std::thread::sleep(std::time::Duration::from_millis(10));
        let _ = cactus_serve::Client::new(addr).get("/v1/healthz");
    }
}
