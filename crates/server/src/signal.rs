//! SIGTERM / SIGINT → one atomic flag.
//!
//! The workspace links no third-party crates, so the handler is installed
//! through libc's `signal(2)` directly (libc itself is always linked on the
//! platforms we target). The handler does the only async-signal-safe thing
//! worth doing: it sets a flag, which turns delivery of either signal into
//! a graceful drain-and-exit. The accept loop waits for connections with
//! `poll(2)` on the listener and re-checks the flag after each accept and
//! at least every 5 ms while idle, so the drain starts within that bound.

use std::sync::atomic::{AtomicBool, Ordering};

static REQUESTED: AtomicBool = AtomicBool::new(false);

/// Has a shutdown signal been delivered (or [`request`] been called)?
pub fn requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}

/// Programmatic equivalent of receiving SIGTERM — used by tests and by any
/// embedding that wants to stop the daemon from another thread.
pub fn request() {
    REQUESTED.store(true, Ordering::SeqCst);
}

/// Reset the flag (tests only; a real daemon exits after one shutdown).
pub fn reset() {
    REQUESTED.store(false, Ordering::SeqCst);
}

extern "C" fn on_signal(_signum: i32) {
    REQUESTED.store(true, Ordering::SeqCst);
}

/// Install the handler for SIGINT (ctrl-c) and SIGTERM. Safe to call more
/// than once. On non-unix targets this is a no-op and only [`request`]
/// can stop the daemon.
#[cfg(unix)]
pub fn install() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Non-unix fallback: nothing to install.
#[cfg(not(unix))]
pub fn install() {
    // Keep the handler referenced so the cfg split stays warning-free.
    let _ = on_signal as extern "C" fn(i32);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sets_and_reset_clears() {
        reset();
        assert!(!requested());
        request();
        assert!(requested());
        reset();
        assert!(!requested());
    }
}
