//! In-process fleet management: spawn, kill, and restart `cactus-serve`
//! backends behind the gateway.
//!
//! Each slot remembers its [`ServeConfig`] with the bound address **pinned**
//! after the first start (an ephemeral `:0` bind is resolved once, then
//! written back into the config), so a restarted backend reappears at the
//! same address the ring hashed it to. Rebinding a just-killed port works
//! because the serve listener sets `SO_REUSEADDR`; without it, lingering
//! TIME_WAIT sockets would make every restart race a kernel timer.
//!
//! The slot table lives behind a [`RankedMutex`] (rank
//! [`rank::SUPERVISOR`], the outermost lock in the workspace order), so the
//! signal handler, the admin path, and the tests can all drive the fleet
//! through a shared reference. Servers are taken *out* of the table before
//! being joined: a slow drain never blocks `addrs()`/`running()` readers.
//!
//! The supervisor is how the failover story gets exercised end to end: the
//! integration suite kills a live backend mid-run (clients must see zero
//! errors thanks to ejection + re-routing) and restarts it (the half-open
//! trial must re-admit it).

use std::io;
use std::net::SocketAddr;

use cactus_obs::lock::{rank, RankedMutex};
use cactus_serve::{ServeConfig, Server};

struct Slot {
    config: ServeConfig,
    /// The pinned address `config.addr` resolves to, parsed once at spawn.
    addr: SocketAddr,
    server: Option<Server>,
}

/// A fixed set of supervised backend slots.
pub struct Supervisor {
    slots: RankedMutex<Vec<Slot>>,
}

impl Supervisor {
    /// Start `n` backends from `base` (its `addr` is used as-is for the
    /// first slot only if it names port 0; every slot binds ephemerally and
    /// then pins the resolved address).
    ///
    /// Each slot gets its own `slot-<i>` subdirectory of `base.store_dir`
    /// (or of [`cactus_store::default_dir`] when that is `None`): the
    /// embedded store admits a single writer per directory, so a second
    /// backend on the same tree would be refused. The subdirectory is
    /// pinned in the slot's config, so a restarted backend reopens *its
    /// own* segments — which is what makes kill/restart durability and
    /// anti-entropy testable in-process.
    ///
    /// # Errors
    ///
    /// Propagates the first bind failure; already-started backends are shut
    /// down before returning.
    pub fn spawn_fleet(n: usize, base: &ServeConfig) -> io::Result<Self> {
        let device_sets = vec![base.devices.clone(); n];
        Self::spawn_heterogeneous(&device_sets, base)
    }

    /// [`spawn_fleet`](Self::spawn_fleet) with one modeled-device set per
    /// slot: slot `i` models `device_sets[i]` (empty = the full catalog).
    /// This is how a heterogeneous fleet — different slots modeling
    /// different hardware — is stood up for the device-aware routing and
    /// `/v1/compare` paths.
    ///
    /// # Errors
    ///
    /// Propagates the first bind or device-validation failure;
    /// already-started backends are shut down before returning.
    pub fn spawn_heterogeneous(
        device_sets: &[Vec<String>],
        base: &ServeConfig,
    ) -> io::Result<Self> {
        let store_root = base
            .store_dir
            .clone()
            .unwrap_or_else(cactus_store::default_dir);
        let mut slots = Vec::with_capacity(device_sets.len());
        for (i, devices) in device_sets.iter().enumerate() {
            let mut config = base.clone();
            config.addr = "127.0.0.1:0".to_owned();
            config.devices = devices.clone();
            config.store_dir = Some(store_root.join(format!("slot-{i}")));
            match Server::start(config.clone()) {
                Ok(server) => {
                    // Pin the resolved port so a restart reuses it.
                    let addr = server.addr();
                    config.addr = addr.to_string();
                    slots.push(Slot {
                        config,
                        addr,
                        server: Some(server),
                    });
                }
                Err(e) => {
                    for slot in slots {
                        if let Some(server) = slot.server {
                            server.join();
                        }
                    }
                    return Err(e);
                }
            }
        }
        Ok(Self {
            slots: RankedMutex::new(rank::SUPERVISOR, "gateway.supervisor", slots),
        })
    }

    /// Number of slots (running or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// True when the supervisor manages no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.lock().is_empty()
    }

    /// Every slot's pinned address, in slot order (stable across restarts).
    #[must_use]
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.slots.lock().iter().map(|s| s.addr).collect()
    }

    /// Whether slot `i` currently has a running server.
    #[must_use]
    pub fn running(&self, i: usize) -> bool {
        self.slots.lock().get(i).is_some_and(|s| s.server.is_some())
    }

    /// Gracefully stop slot `i` (drains in-flight requests, then joins all
    /// of its threads). No-op if already stopped or out of range.
    pub fn kill(&self, i: usize) {
        // Take the server out under the lock, join outside it: a drain can
        // take as long as the slowest in-flight request, and readers
        // (addrs, running) must not wait on it.
        let server = self.slots.lock().get_mut(i).and_then(|s| s.server.take());
        if let Some(server) = server {
            server.join();
        }
    }

    /// Restart slot `i` on its pinned address. No-op if already running or
    /// out of range.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (the slot stays stopped).
    pub fn restart(&self, i: usize) -> io::Result<()> {
        let config = match self.slots.lock().get(i) {
            Some(slot) if slot.server.is_none() => slot.config.clone(),
            _ => return Ok(()),
        };
        // Bind outside the lock (it can fail slowly), then install. The
        // slot cannot race to a second server: only `restart` fills an
        // empty slot, and a concurrent fill is re-joined defensively.
        let server = Server::start(config)?;
        let displaced = self
            .slots
            .lock()
            .get_mut(i)
            .and_then(|s| s.server.replace(server));
        if let Some(old) = displaced {
            old.join();
        }
        Ok(())
    }

    /// Stop every running backend, draining each.
    pub fn shutdown_all(&self) {
        // Signal all first so they drain concurrently, then join — again
        // with the servers moved out of the table.
        let servers: Vec<Server> = {
            let mut slots = self.slots.lock();
            for slot in slots.iter() {
                if let Some(server) = &slot.server {
                    server.shutdown();
                }
            }
            slots.iter_mut().filter_map(|s| s.server.take()).collect()
        };
        for server in servers {
            server.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_serve::Client;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// A fleet config on a store root no other test (or test process)
    /// shares — a store directory admits one open handle.
    fn base() -> ServeConfig {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        ServeConfig {
            workers: 1,
            queue: 8,
            store_dir: Some(std::env::temp_dir().join(format!(
                "cactus-supervisor-test-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ))),
            ..ServeConfig::default()
        }
    }

    fn clean_up(base: &ServeConfig) {
        let _ = std::fs::remove_dir_all(base.store_dir.as_ref().expect("base sets a store dir"));
    }

    #[test]
    fn fleet_spawns_on_distinct_ports_and_answers_health() {
        let base = base();
        let fleet = Supervisor::spawn_fleet(2, &base).expect("spawn");
        let addrs = fleet.addrs();
        assert_eq!(addrs.len(), 2);
        assert_ne!(addrs[0], addrs[1]);
        for &addr in &addrs {
            let reply = Client::new(addr)
                .with_timeout(Duration::from_secs(5))
                .get("/v1/healthz")
                .expect("healthz");
            assert_eq!(reply.status, 200);
        }
        fleet.shutdown_all();
        assert!(!fleet.running(0) && !fleet.running(1));
        clean_up(&base);
    }

    #[test]
    fn heterogeneous_slots_advertise_their_own_devices() {
        let base = base();
        let fleet = Supervisor::spawn_heterogeneous(
            &[
                vec!["rtx-3080".to_owned()],
                vec!["uhd-630".to_owned(), "rtx-3060".to_owned()],
            ],
            &base,
        )
        .expect("spawn");
        let addrs = fleet.addrs();
        let devices_of = |addr| {
            let reply = Client::new(addr)
                .with_timeout(Duration::from_secs(5))
                .get("/v1/healthz")
                .expect("healthz");
            assert_eq!(reply.status, 200);
            cactus_serve::parse_health_devices(&reply.body).expect("devices line")
        };
        assert_eq!(devices_of(addrs[0]), vec!["rtx-3080".to_owned()]);
        assert_eq!(
            devices_of(addrs[1]),
            vec!["uhd-630".to_owned(), "rtx-3060".to_owned()],
            "slot 1 advertises exactly its configured device set"
        );
        fleet.shutdown_all();
        clean_up(&base);
    }

    #[test]
    fn kill_and_restart_reuse_the_pinned_port() {
        let base = base();
        let fleet = Supervisor::spawn_fleet(1, &base).expect("spawn");
        let addr = fleet.addrs()[0];
        fleet.kill(0);
        assert!(!fleet.running(0));
        assert!(
            Client::new(addr)
                .with_timeout(Duration::from_millis(500))
                .get("/v1/healthz")
                .is_err(),
            "killed backend must stop answering"
        );
        fleet.restart(0).expect("rebind pinned port");
        assert_eq!(fleet.addrs()[0], addr, "address pinned across restart");
        let reply = Client::new(addr)
            .with_timeout(Duration::from_secs(5))
            .get("/v1/healthz")
            .expect("healthz after restart");
        assert_eq!(reply.status, 200);
        fleet.shutdown_all();
        clean_up(&base);
    }

    #[test]
    fn out_of_range_slot_ops_are_noops() {
        let base = base();
        let fleet = Supervisor::spawn_fleet(1, &base).expect("spawn");
        fleet.kill(7);
        assert!(fleet.restart(7).is_ok());
        assert!(!fleet.running(7));
        fleet.shutdown_all();
        clean_up(&base);
    }
}
