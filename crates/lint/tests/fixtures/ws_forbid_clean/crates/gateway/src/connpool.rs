//! Control fixture: connpool.rs is where the gateway builds a connection to
//! a backend, and test code may dial directly.

fn checkout(addr: std::net::SocketAddr, timeout: std::time::Duration) -> Connection {
    Connection::new(addr, timeout)
}

#[cfg(test)]
mod tests {
    fn direct(addr: std::net::SocketAddr) {
        let _ = cactus_serve::Client::new(addr).get("/v1/healthz");
    }
}
