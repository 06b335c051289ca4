//! Fault injection for exercising the daemon's supervision machinery.
//!
//! The supervision paths — panic absorption, quarantine, worker respawn,
//! degraded health — only run when something goes wrong, which in normal
//! operation is never. This module makes "something goes wrong" a
//! deterministic, scriptable event so tests (and the `chaos`-feature CI
//! job) can drive those paths on purpose: inject a panic when a specific
//! content key is executed, stretch a job with an artificial delay, kill a
//! worker between jobs, or pretend the queue is full.
//!
//! Compiled only under `cfg(test)` or the `chaos` cargo feature
//! (`cfg(test)` alone would not reach integration tests, which build the
//! crate as a normal dependency). A default release build contains none of
//! this code, and every knob defaults to "do nothing".

use ftrepair_core::Token;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shared fault-injection plan. Build one, hand it to
/// [`ServerConfig::chaos`](crate::ServerConfig), and flip knobs from the
/// test thread while the server runs — every method takes `&self`.
#[derive(Default)]
pub struct Chaos {
    panic_keys: Mutex<HashSet<String>>,
    delay_all: Mutex<Option<Duration>>,
    panic_per_mille: AtomicU32,
    kill_worker_per_mille: AtomicU32,
    queue_full: AtomicBool,
    rng: Mutex<u64>,
}

impl Chaos {
    /// A plan with every fault disabled.
    pub fn new() -> Chaos {
        Chaos::default()
    }

    /// Panic whenever a job with this exact content key starts executing.
    pub fn panic_on_key(&self, key: &str) {
        self.panic_keys.lock().unwrap().insert(key.to_string());
    }

    /// Delay execution of every job by `delay`. `None` clears it.
    pub fn delay_all(&self, delay: Option<Duration>) {
        *self.delay_all.lock().unwrap() = delay;
    }

    /// Panic at the start of a random `per_mille` in 1000 job executions.
    pub fn panic_per_mille(&self, per_mille: u32) {
        self.panic_per_mille.store(per_mille, Ordering::Relaxed);
    }

    /// Kill a worker (panic outside any job) after a random `per_mille` in
    /// 1000 served connections.
    pub fn kill_worker_per_mille(&self, per_mille: u32) {
        self.kill_worker_per_mille.store(per_mille, Ordering::Relaxed);
    }

    /// Make the accept loop treat the queue as full (`429` every POST).
    pub fn force_queue_full(&self, on: bool) {
        self.queue_full.store(on, Ordering::Relaxed);
    }

    pub(crate) fn queue_forced_full(&self) -> bool {
        self.queue_full.load(Ordering::Relaxed)
    }

    /// Hook run inside the job's panic boundary, just before `execute`.
    pub(crate) fn before_execute(&self, key: &str, token: &Token) {
        let delay = *self.delay_all.lock().unwrap();
        if let Some(d) = delay {
            // Sleep in short slices so an injected delay still honors the
            // job's deadline/cancel token — a 10s chaos delay must not pin
            // a worker past its budget.
            let until = Instant::now() + d;
            while Instant::now() < until && token.check().is_ok() {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        if token.check().is_err() {
            // Let `execute` report the abort; panicking on top of it
            // would turn a clean 503 into a quarantine.
            return;
        }
        if self.panic_keys.lock().unwrap().contains(key) {
            panic!("chaos: injected panic for content key {key}");
        }
        if self.roll(self.panic_per_mille.load(Ordering::Relaxed)) {
            panic!("chaos: injected random panic");
        }
    }

    /// Hook run by the worker loop between jobs, outside any panic
    /// boundary — an escape here exercises the supervisor's respawn path.
    pub(crate) fn maybe_kill_worker(&self) {
        if self.roll(self.kill_worker_per_mille.load(Ordering::Relaxed)) {
            panic!("chaos: worker killed between jobs");
        }
    }

    /// SplitMix64 coin: true with probability `per_mille`/1000.
    fn roll(&self, per_mille: u32) -> bool {
        if per_mille == 0 {
            return false;
        }
        let mut state = self.rng.lock().unwrap();
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % 1000) < u64::from(per_mille)
    }
}

impl fmt::Debug for Chaos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Chaos")
            .field("panic_keys", &self.panic_keys.lock().unwrap().len())
            .field("panic_per_mille", &self.panic_per_mille.load(Ordering::Relaxed))
            .field("kill_worker_per_mille", &self.kill_worker_per_mille.load(Ordering::Relaxed))
            .field("queue_full", &self.queue_full.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_chaos_does_nothing() {
        let chaos = Chaos::new();
        chaos.before_execute("anykey", &Token::unbounded());
        chaos.maybe_kill_worker();
        assert!(!chaos.queue_forced_full());
    }

    #[test]
    fn keyed_panic_fires_only_on_its_key() {
        let chaos = Chaos::new();
        chaos.panic_on_key("deadbeef");
        chaos.before_execute("cafebabe", &Token::unbounded());
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            chaos.before_execute("deadbeef", &Token::unbounded());
        }));
        assert!(hit.is_err(), "matching key must panic");
    }

    #[test]
    fn delay_respects_the_token() {
        let chaos = Chaos::new();
        chaos.delay_all(Some(Duration::from_secs(30)));
        let started = Instant::now();
        // An already-expired deadline means the slice loop exits at once.
        chaos.before_execute("k", &Token::deadline_in(Duration::ZERO));
        assert!(started.elapsed() < Duration::from_secs(1), "delay must not outlive the budget");
    }

    #[test]
    fn probability_extremes_behave() {
        let chaos = Chaos::new();
        assert!(!chaos.roll(0), "0 per mille never fires");
        assert!(chaos.roll(1000), "1000 per mille always fires");
    }
}
