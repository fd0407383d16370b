//! Minimal `SIGINT`/`SIGTERM` handling without a libc crate.
//!
//! `std` already links the platform C library on Unix, so a one-line
//! `extern "C"` declaration of `signal(2)` is enough to install an
//! async-signal-safe handler that flips an [`AtomicBool`]. The daemon's
//! main loop polls that flag and runs the normal graceful-shutdown path —
//! the handler itself does nothing else, which keeps it trivially
//! async-signal-safe.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler when `SIGINT` or `SIGTERM` arrives.
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod unix {
    use super::{Ordering, SHUTDOWN_REQUESTED};

    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;

    extern "C" {
        /// `signal(2)` from the C library `std` links anyway.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: async-signal-safe by construction.
        SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `on_signal` is an `extern "C" fn(i32)` whose address is a
        // valid sighandler_t, and it performs only an atomic store.
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

/// Install handlers for `SIGINT` and `SIGTERM` (no-op off Unix).
pub fn install_handlers() {
    #[cfg(unix)]
    unix::install();
}

/// Whether a shutdown signal has been received.
#[must_use]
pub fn shutdown_requested() -> bool {
    SHUTDOWN_REQUESTED.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trips() {
        install_handlers();
        assert!(!shutdown_requested() || cfg!(not(unix)));
        SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
        assert!(shutdown_requested());
    }
}
