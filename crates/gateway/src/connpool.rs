//! Keep-alive connection pooling, one idle stack per backend.
//!
//! Workers check a [`cactus_serve::Connection`] out, run one or more
//! exchanges on it, and check it back in. Connections that went bad (or
//! that the server closed) are simply dropped on check-in; `Connection`
//! itself re-dials lazily, so a checked-out handle is always usable. The
//! pool is bounded per backend so a burst doesn't strand hundreds of idle
//! sockets.
//!
//! The pool is the one place the gateway builds a connection to a backend:
//! every exchange, forward or control-plane, checks one out here.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cactus_obs::lock::{rank, RankedMutex};
use cactus_serve::Connection;

/// Read and write timeout of a pooled connection: one exchange's bound
/// once connected. Cold profile simulations can be slow, so it is generous.
const BACKEND_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a health probe or a repair pass's read or push waits for its
/// reply to begin, and the bound on every pooled dial: a backend whose
/// accept queue is full, or that answers probes but stalls the rest, costs
/// a probe round, a repair exchange (or a forward attempt) this long, not
/// [`BACKEND_TIMEOUT`].
pub(crate) const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

/// Idle keep-alive connections pooled per backend.
const MAX_IDLE_CONNS: usize = 8;

/// Per-backend stacks of idle keep-alive connections.
#[derive(Debug)]
pub struct ConnPool {
    addrs: Vec<SocketAddr>,
    idle: Vec<RankedMutex<Vec<Connection>>>,
    dials: AtomicU64,
    reuses: AtomicU64,
}

impl ConnPool {
    /// A pool over `addrs`.
    #[must_use]
    pub(crate) fn new(addrs: Vec<SocketAddr>) -> Self {
        let idle = addrs
            .iter()
            .map(|_| RankedMutex::new(rank::CONN_POOL, "gateway.connpool", Vec::new()))
            .collect();
        Self {
            addrs,
            idle,
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
        Connection::new(self.addrs[i], BACKEND_TIMEOUT).with_dial_timeout(PROBE_TIMEOUT)
    }

    /// Return a connection to backend `i`'s idle stack. Dead connections
    /// and overflow beyond [`MAX_IDLE_CONNS`] are dropped (the socket
    /// closes).
    pub(crate) fn checkin(&self, i: usize, conn: Connection) {
        if !conn.is_connected() {
            return;
        }
        let mut idle = self.idle[i].lock();
        if idle.len() < MAX_IDLE_CONNS {
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

    fn pool() -> ConnPool {
        ConnPool::new(vec!["127.0.0.1:9".parse().expect("addr")])
    }

    #[test]
    fn checkout_without_idle_counts_a_dial() {
        let p = pool();
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
        let p = pool();
        p.evict(0); // empty evict is a no-op
        assert_eq!(p.addrs.len(), 1);
        assert!(!p.addrs.is_empty());
    }
}
