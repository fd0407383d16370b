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
//!      │ trial request succeeds                     ▼ (read off the clock)
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
//!
//! The state itself is not stored: it is derived when read, from the
//! backend's consecutive-failure count and the instant of its last
//! ejection, so `HalfOpen` starts exactly at `ejected_at + cooldown` and no
//! timer thread stands behind it.

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
    consecutive_failures: u32,
    /// The last ejection; `None` until one, and again after a success.
    ejected_at: Option<Instant>,
}

/// Tracks health for a fixed fleet of backends, indexed by backend.
#[derive(Debug)]
pub struct HealthTracker {
    backends: RankedMutex<Vec<Backend>>,
    eject_after: u32,
    cooldown: Duration,
    ejections: AtomicU64,
}

impl HealthTracker {
    /// All backends start `Healthy`. `eject_after` consecutive failures
    /// eject a backend; it is `HalfOpen` once `cooldown` has elapsed since
    /// (at once for a zero cooldown).
    #[must_use]
    pub(crate) fn new(backends: usize, eject_after: u32, cooldown: Duration) -> Self {
        Self {
            backends: RankedMutex::new(
                rank::HEALTH,
                "gateway.health",
                (0..backends)
                    .map(|_| Backend {
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
    }

    /// Record a failed exchange (transport error) with backend `i`, and
    /// say whether it ejected the backend. `Healthy` backends eject after
    /// `eject_after` consecutive failures; a `HalfOpen` backend fails its
    /// trial and re-ejects immediately; a failure inside the cooldown
    /// does not restart it.
    pub(crate) fn report_failure(&self, i: usize) -> bool {
        let mut backends = self.backends.lock();
        let b = &mut backends[i];
        b.consecutive_failures = b.consecutive_failures.saturating_add(1);
        let eject = match self.state_of(b.ejected_at) {
            HealthState::Healthy => b.consecutive_failures >= self.eject_after,
            HealthState::HalfOpen => true,
            HealthState::Ejected => false,
        };
        if eject {
            b.ejected_at = Some(Instant::now());
            self.ejections.fetch_add(1, Ordering::Relaxed);
        }
        eject
    }

    /// Whether backend `i` may receive traffic (`Healthy` or `HalfOpen`).
    #[must_use]
    pub(crate) fn available(&self, i: usize) -> bool {
        self.state(i) != HealthState::Ejected
    }

    /// Backend `i`'s current state.
    #[must_use]
    pub fn state(&self, i: usize) -> HealthState {
        let ejected_at = self.backends.lock()[i].ejected_at;
        self.state_of(ejected_at)
    }

    /// The state of a backend last ejected at `ejected_at`. The clock is
    /// read only for a backend with an ejection on record, so routing over
    /// a healthy fleet costs no clock read.
    fn state_of(&self, ejected_at: Option<Instant>) -> HealthState {
        match ejected_at {
            None => HealthState::Healthy,
            Some(t) if t.elapsed() < self.cooldown => HealthState::Ejected,
            Some(_) => HealthState::HalfOpen,
        }
    }

    /// Total transitions into `Ejected` since startup.
    #[must_use]
    pub fn ejections(&self) -> u64 {
        self.ejections.load(Ordering::Relaxed)
    }

    /// Move backend `i`'s recorded ejection `by` into the past, so a test
    /// sets the time since it without sleeping.
    #[cfg(test)]
    pub(crate) fn backdate(&self, i: usize, by: Duration) {
        if let Some(t) = &mut self.backends.lock()[i].ejected_at {
            *t = t.checked_sub(by).expect("the clock reaches back that far");
        }
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

    /// A minute of cooldown: only a backdated ejection has served it.
    const COOLDOWN: Duration = Duration::from_secs(60);

    #[test]
    fn cooldown_opens_trial_and_success_readmits() {
        let h = HealthTracker::new(1, 1, COOLDOWN);
        h.report_failure(0);
        assert_eq!(h.state(0), HealthState::Ejected);
        h.backdate(0, COOLDOWN);
        assert_eq!(h.state(0), HealthState::HalfOpen);
        assert!(h.available(0), "half-open backends are routable");
        h.report_success(0);
        assert_eq!(h.state(0), HealthState::Healthy);
        assert_eq!(h.ejections(), 1);
    }

    #[test]
    fn failed_trial_reejects_and_counts() {
        let h = HealthTracker::new(1, 2, COOLDOWN);
        h.report_failure(0);
        h.report_failure(0);
        h.backdate(0, COOLDOWN);
        assert_eq!(h.state(0), HealthState::HalfOpen);
        h.report_failure(0);
        assert_eq!(
            h.state(0),
            HealthState::Ejected,
            "one trial failure re-ejects"
        );
        assert_eq!(h.ejections(), 2);
    }

    /// Readmission is read off the clock: nothing but time passes between
    /// the ejection and the check.
    #[test]
    fn cooldown_elapses_without_any_other_call() {
        let h = HealthTracker::new(1, 1, Duration::from_millis(50));
        h.report_failure(0);
        assert_eq!(h.ejections(), 1);
        std::thread::sleep(Duration::from_millis(60));
        assert!(h.available(0), "half-open once the cooldown has elapsed");
    }

    #[test]
    fn cooldown_holds_until_it_elapses() {
        let h = HealthTracker::new(1, 1, COOLDOWN);
        h.report_failure(0);
        h.backdate(0, COOLDOWN - Duration::from_secs(1));
        assert_eq!(h.state(0), HealthState::Ejected, "cooldown not elapsed");
    }

    #[test]
    fn a_failure_inside_the_cooldown_does_not_restart_it() {
        let h = HealthTracker::new(1, 1, COOLDOWN);
        assert!(h.report_failure(0), "the first failure ejects");
        h.backdate(0, COOLDOWN / 2);
        assert!(!h.report_failure(0), "an ejected backend is not re-ejected");
        assert_eq!(h.state(0), HealthState::Ejected);
        h.backdate(0, COOLDOWN / 2);
        assert_eq!(
            h.state(0),
            HealthState::HalfOpen,
            "the cooldown runs from the first ejection"
        );
        assert_eq!(h.ejections(), 1);
    }
}
