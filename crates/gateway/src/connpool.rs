//! Keep-alive connection pooling, one idle stack per backend.
//!
//! Workers check a [`cactus_serve::Connection`] out, run one or more
//! exchanges on it, and check it back in. Connections that went bad (or
//! that the server closed) are simply dropped on check-in; `Connection`
//! itself re-dials lazily, so a checked-out handle is always usable. The
//! pool is bounded per backend so a burst doesn't strand hundreds of idle
//! sockets.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cactus_obs::lock::{rank, RankedMutex};
use cactus_serve::Connection;

/// Per-backend stacks of idle keep-alive connections.
#[derive(Debug)]
pub struct ConnPool {
    addrs: Vec<SocketAddr>,
    idle: Vec<RankedMutex<Vec<Connection>>>,
    timeout: Duration,
    max_idle: usize,
    dials: AtomicU64,
    reuses: AtomicU64,
}

impl ConnPool {
    /// A pool over `addrs`, keeping at most `max_idle` idle connections per
    /// backend; `timeout` applies to connect/read/write on each connection.
    #[must_use]
    pub(crate) fn new(addrs: Vec<SocketAddr>, timeout: Duration, max_idle: usize) -> Self {
        let idle = addrs
            .iter()
            .map(|_| RankedMutex::new(rank::CONN_POOL, "gateway.connpool", Vec::new()))
            .collect();
        Self {
            addrs,
            idle,
            timeout,
            max_idle: max_idle.max(1),
            dials: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// Take an idle connection to backend `i`, or a fresh (lazily dialing)
    /// one if none is pooled.
    #[must_use]
    pub(crate) fn checkout(&self, i: usize) -> Connection {
        if let Some(conn) = self.idle[i].lock().pop() {
            self.reuses.fetch_add(1, Ordering::Relaxed);
            return conn;
        }
        self.dials.fetch_add(1, Ordering::Relaxed);
        Connection::new(self.addrs[i], self.timeout)
    }

    /// Return a connection to backend `i`'s idle stack. Dead connections
    /// and overflow beyond `max_idle` are dropped (the socket closes).
    pub(crate) fn checkin(&self, i: usize, conn: Connection) {
        if !conn.is_connected() {
            return;
        }
        let mut idle = self.idle[i].lock();
        if idle.len() < self.max_idle {
            idle.push(conn);
        }
    }

    /// Drop every pooled connection to backend `i` (e.g. after ejection, so
    /// recovery trials start from fresh sockets).
    pub(crate) fn evict(&self, i: usize) {
        self.idle[i].lock().clear();
    }

    /// Checkouts satisfied by a fresh connection handle.
    #[must_use]
    pub fn dials(&self) -> u64 {
        self.dials.load(Ordering::Relaxed)
    }

    /// Checkouts satisfied from the idle stack.
    #[must_use]
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(max_idle: usize) -> ConnPool {
        ConnPool::new(
            vec!["127.0.0.1:9".parse().expect("addr")],
            Duration::from_millis(50),
            max_idle,
        )
    }

    #[test]
    fn checkout_without_idle_counts_a_dial() {
        let p = pool(4);
        let c = p.checkout(0);
        assert_eq!(p.dials(), 1);
        assert_eq!(p.reuses(), 0);
        // Never dialed, so it is not connected and check-in drops it.
        p.checkin(0, c);
        let _ = p.checkout(0);
        assert_eq!(p.dials(), 2, "dead connection was not pooled");
    }

    #[test]
    fn evict_clears_idle_stack() {
        let p = pool(4);
        p.evict(0); // empty evict is a no-op
        assert_eq!(p.addrs.len(), 1);
        assert!(!p.addrs.is_empty());
    }
}
