//! Backend health tracking: consecutive-failure ejection with half-open
//! recovery.
//!
//! Each backend moves through a three-state machine driven by data-path
//! outcomes (and, optionally, active probes — both report through the same
//! two entry points):
//!
//! ```text
//!            eject_after consecutive failures
//!   Healthy ────────────────────────────────────▶ Ejected
//!      ▲                                            │ cooldown elapses
//!      │ trial request succeeds                     ▼ (via tick())
//!      └──────────────────────────────────────── HalfOpen
//!                         │ trial request fails
//!                         └───────▶ Ejected (cooldown restarts)
//! ```
//!
//! `Ejected` backends are skipped by the router; `HalfOpen` backends are
//! routable again, so the next real (or probe) request doubles as the
//! recovery trial — one success re-admits the backend, one failure re-ejects
//! it for another cooldown. This keeps recovery cheap: no separate trial
//! machinery, just routing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cactus_obs::lock::{rank, RankedMutex};

/// One backend's position in the ejection state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Serving traffic normally.
    Healthy,
    /// Skipped by the router until the cooldown elapses.
    Ejected,
    /// Routable again; the next outcome decides re-admission or re-ejection.
    HalfOpen,
}

#[derive(Debug)]
struct Backend {
    state: HealthState,
    consecutive_failures: u32,
    ejected_at: Option<Instant>,
}

/// Tracks health for a fixed fleet of backends, indexed by ring position.
#[derive(Debug)]
pub struct HealthTracker {
    backends: RankedMutex<Vec<Backend>>,
    eject_after: u32,
    cooldown: Duration,
    ejections: AtomicU64,
}

impl HealthTracker {
    /// All backends start `Healthy`. `eject_after` consecutive failures
    /// eject a backend; it becomes `HalfOpen` once `cooldown` has elapsed
    /// (checked by [`tick`](Self::tick)).
    #[must_use]
    pub(crate) fn new(backends: usize, eject_after: u32, cooldown: Duration) -> Self {
        Self {
            backends: RankedMutex::new(
                rank::HEALTH,
                "gateway.health",
                (0..backends)
                    .map(|_| Backend {
                        state: HealthState::Healthy,
                        consecutive_failures: 0,
                        ejected_at: None,
                    })
                    .collect(),
            ),
            eject_after: eject_after.max(1),
            cooldown,
            ejections: AtomicU64::new(0),
        }
    }

    /// Record a successful exchange with backend `i`. A `HalfOpen` backend
    /// passes its trial and returns to `Healthy`.
    pub(crate) fn report_success(&self, i: usize) {
        let mut backends = self.backends.lock();
        let b = &mut backends[i];
        b.consecutive_failures = 0;
        b.ejected_at = None;
        b.state = HealthState::Healthy;
    }

    /// Record a failed exchange (transport error) with backend `i`.
    /// `Healthy` backends eject after `eject_after` consecutive failures;
    /// a `HalfOpen` backend fails its trial and re-ejects immediately.
    pub(crate) fn report_failure(&self, i: usize) {
        let mut backends = self.backends.lock();
        let b = &mut backends[i];
        b.consecutive_failures = b.consecutive_failures.saturating_add(1);
        let eject = match b.state {
            HealthState::Healthy => b.consecutive_failures >= self.eject_after,
            HealthState::HalfOpen => true,
            HealthState::Ejected => false,
        };
        if eject {
            b.state = HealthState::Ejected;
            b.ejected_at = Some(Instant::now());
            self.ejections.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Move every `Ejected` backend whose cooldown has elapsed to
    /// `HalfOpen`. Called periodically by the gateway's health thread.
    pub(crate) fn tick(&self) {
        let mut backends = self.backends.lock();
        for b in backends.iter_mut() {
            if b.state == HealthState::Ejected
                && b.ejected_at.is_some_and(|t| t.elapsed() >= self.cooldown)
            {
                b.state = HealthState::HalfOpen;
            }
        }
    }

    /// Whether backend `i` may receive traffic (`Healthy` or `HalfOpen`).
    #[must_use]
    pub(crate) fn available(&self, i: usize) -> bool {
        self.state(i) != HealthState::Ejected
    }

    /// Backend `i`'s current state.
    #[must_use]
    pub fn state(&self, i: usize) -> HealthState {
        self.backends.lock()[i].state
    }

    /// Total transitions into `Ejected` since startup.
    #[must_use]
    pub fn ejections(&self) -> u64 {
        self.ejections.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ejects_after_consecutive_failures_only() {
        let h = HealthTracker::new(2, 3, Duration::from_secs(60));
        h.report_failure(0);
        h.report_failure(0);
        assert_eq!(h.state(0), HealthState::Healthy, "below threshold");
        h.report_success(0);
        h.report_failure(0);
        h.report_failure(0);
        assert_eq!(h.state(0), HealthState::Healthy, "success reset the run");
        h.report_failure(0);
        assert_eq!(h.state(0), HealthState::Ejected);
        assert!(!h.available(0));
        assert_eq!(h.state(1), HealthState::Healthy, "peers unaffected");
        assert_eq!(h.ejections(), 1);
    }

    #[test]
    fn cooldown_opens_trial_and_success_readmits() {
        let h = HealthTracker::new(1, 1, Duration::from_millis(0));
        h.report_failure(0);
        assert_eq!(h.state(0), HealthState::Ejected);
        h.tick();
        assert_eq!(h.state(0), HealthState::HalfOpen);
        assert!(h.available(0), "half-open backends are routable");
        h.report_success(0);
        assert_eq!(h.state(0), HealthState::Healthy);
        assert_eq!(h.ejections(), 1);
    }

    #[test]
    fn failed_trial_reejects_and_counts() {
        let h = HealthTracker::new(1, 2, Duration::from_millis(0));
        h.report_failure(0);
        h.report_failure(0);
        h.tick();
        assert_eq!(h.state(0), HealthState::HalfOpen);
        h.report_failure(0);
        assert_eq!(
            h.state(0),
            HealthState::Ejected,
            "one trial failure re-ejects"
        );
        assert_eq!(h.ejections(), 2);
    }

    #[test]
    fn tick_respects_cooldown() {
        let h = HealthTracker::new(1, 1, Duration::from_secs(3600));
        h.report_failure(0);
        h.tick();
        assert_eq!(h.state(0), HealthState::Ejected, "cooldown not elapsed");
    }
}
