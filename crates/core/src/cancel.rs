//! Cooperative cancellation and deadlines for the repair algorithms.
//!
//! The realizability constraint makes repair NP-complete, so a hostile
//! spec can drive the fixpoint loops effectively forever. Every algorithm
//! module therefore threads a [`Token`] through its loops and checks it at
//! each fixpoint-iteration and BDD-op-batch boundary; when the token fires
//! the repair unwinds with [`RepairAborted`] instead of running unbounded.
//! Checks are a single atomic load plus (when a deadline is armed) a clock
//! read — negligible next to one symbolic image computation.

use crate::checkpoint::Checkpointer;
use crate::options::RepairOptions;
use ftrepair_bdd::NodeId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a repair run stopped early. Returned by every repair entry point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairAborted {
    /// The token's deadline passed.
    Timeout,
    /// The token's cancellation flag was raised.
    Cancelled,
    /// The BDD arena outgrew [`RepairOptions::max_nodes`] and a garbage
    /// collection could not bring it back under — the memory analogue of
    /// `Timeout`, returned instead of letting the process OOM.
    ResourceExhausted,
}

impl std::fmt::Display for RepairAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairAborted::Timeout => write!(f, "repair aborted: deadline exceeded"),
            RepairAborted::Cancelled => write!(f, "repair aborted: cancelled"),
            RepairAborted::ResourceExhausted => {
                write!(f, "repair aborted: node budget exhausted")
            }
        }
    }
}

impl std::error::Error for RepairAborted {}

/// A cancellation/deadline token: an optional shared flag (raised by
/// whoever wants the run gone — a signal handler, a server draining its
/// queue) plus an optional absolute deadline. Cloning shares the flag, so
/// one raise cancels every clone.
/// A token may also carry a [`Checkpointer`]; the repair loops offer their
/// fixpoint state to it at the same boundaries they poll the token, so an
/// abort (drain, deadline, node budget) leaves a resume point behind.
#[derive(Clone, Debug, Default)]
pub struct Token {
    flag: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
    ckpt: Option<Arc<Checkpointer>>,
}

impl Token {
    /// A token that never fires — the default for every caller that does
    /// not opt into deadlines.
    pub fn unbounded() -> Token {
        Token { flag: None, deadline: None, ckpt: None }
    }

    /// Arm the deadline from [`RepairOptions::deadline`], relative to now.
    pub fn from_options(opts: &RepairOptions) -> Token {
        match opts.deadline {
            Some(budget) => Token::deadline_in(budget),
            None => Token::unbounded(),
        }
    }

    /// A token that times out `budget` from now.
    pub fn deadline_in(budget: Duration) -> Token {
        Token { flag: None, deadline: Some(Instant::now() + budget), ckpt: None }
    }

    /// A token that times out at `at`.
    pub fn deadline_at(at: Instant) -> Token {
        Token { flag: None, deadline: Some(at), ckpt: None }
    }

    /// Attach a shared cancellation flag (keeps any existing deadline).
    pub fn with_flag(self, flag: Arc<AtomicBool>) -> Token {
        Token { flag: Some(flag), ..self }
    }

    /// Tighten with a deadline `budget` from now (keeps any existing flag;
    /// the earlier of two deadlines wins).
    pub fn with_deadline_in(self, budget: Duration) -> Token {
        let at = Instant::now() + budget;
        let deadline = Some(self.deadline.map_or(at, |d| d.min(at)));
        Token { deadline, ..self }
    }

    /// Attach a checkpointer (keeps flag and deadline). Clones share it, so
    /// checkpoints from a job's token land in one slot.
    pub fn with_checkpointer(self, ckpt: Arc<Checkpointer>) -> Token {
        Token { ckpt: Some(ckpt), ..self }
    }

    /// The attached checkpointer, if any.
    pub fn checkpointer(&self) -> Option<&Arc<Checkpointer>> {
        self.ckpt.as_ref()
    }

    /// Has the cancellation flag been raised?
    pub fn cancelled(&self) -> bool {
        self.flag.as_ref().is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// The checkpoint the algorithm loops call: `Err(Cancelled)` once the
    /// flag is raised, `Err(Timeout)` once the deadline passes, `Ok` until
    /// then. The flag is consulted first so an explicit cancel wins over a
    /// deadline that expired while the run sat in a queue.
    pub fn check(&self) -> Result<(), RepairAborted> {
        if self.cancelled() {
            return Err(RepairAborted::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(RepairAborted::Timeout);
        }
        Ok(())
    }

    /// The checkpoint variant the repair loops use once a BDD manager is in
    /// play: cancellation and deadline first ([`Token::check`]), then the
    /// manager's latched node-budget exhaustion — set by a governance
    /// checkpoint (`maybe_gc`) when a garbage collection could not
    /// bring the arena back under [`RepairOptions::max_nodes`]. The latch
    /// is sticky, so polling at the loop boundary is enough: an
    /// over-budget arena aborts at most one BDD op batch later.
    pub fn check_governed(
        &self,
        cx: &ftrepair_symbolic::SymbolicContext,
    ) -> Result<(), RepairAborted> {
        self.check()?;
        if cx.budget_exhausted() {
            return Err(RepairAborted::ResourceExhausted);
        }
        Ok(())
    }

    /// Offer the loop's current fixpoint state to the attached
    /// checkpointer, if any. Call immediately *before* [`check_governed`]
    /// at the same boundary: when that check is about to abort the run
    /// (cancel, deadline, exhausted node budget), the write is forced so
    /// the state the abort would discard survives as a resume point.
    ///
    /// [`check_governed`]: Token::check_governed
    pub fn offer_checkpoint(
        &self,
        cx: &ftrepair_symbolic::SymbolicContext,
        invariant: NodeId,
        span: NodeId,
        ms: NodeId,
    ) {
        if let Some(ckpt) = &self.ckpt {
            let abort_imminent = self.check_governed(cx).is_err();
            ckpt.offer(cx, invariant, span, ms, abort_imminent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_token_never_fires() {
        assert_eq!(Token::unbounded().check(), Ok(()));
        assert_eq!(Token::from_options(&RepairOptions::default()).check(), Ok(()));
    }

    #[test]
    fn expired_deadline_times_out() {
        let t = Token::deadline_in(Duration::ZERO);
        assert_eq!(t.check(), Err(RepairAborted::Timeout));
        let future = Token::deadline_in(Duration::from_secs(3600));
        assert_eq!(future.check(), Ok(()));
    }

    #[test]
    fn raised_flag_cancels_and_wins_over_timeout() {
        let flag = Arc::new(AtomicBool::new(false));
        let t = Token::deadline_in(Duration::ZERO).with_flag(Arc::clone(&flag));
        assert_eq!(t.check(), Err(RepairAborted::Timeout), "flag down: deadline fires");
        flag.store(true, Ordering::Relaxed);
        assert_eq!(t.check(), Err(RepairAborted::Cancelled), "flag up: cancel wins");
    }

    #[test]
    fn clones_share_the_flag() {
        let flag = Arc::new(AtomicBool::new(false));
        let t = Token::unbounded().with_flag(Arc::clone(&flag));
        let sibling = t.clone();
        flag.store(true, Ordering::Relaxed);
        assert!(sibling.check().is_err());
    }

    #[test]
    fn tightening_keeps_the_earlier_deadline() {
        let t = Token::deadline_in(Duration::ZERO).with_deadline_in(Duration::from_secs(3600));
        assert_eq!(t.check(), Err(RepairAborted::Timeout));
    }

    #[test]
    fn options_deadline_arms_the_token() {
        let opts = RepairOptions { deadline: Some(Duration::ZERO), ..Default::default() };
        assert_eq!(Token::from_options(&opts).check(), Err(RepairAborted::Timeout));
    }

    #[test]
    fn offer_checkpoint_forces_a_write_when_the_token_is_about_to_abort() {
        use crate::checkpoint::{CheckpointPolicy, Checkpointer};
        use ftrepair_bdd::FALSE;

        // Cadence fully disabled: only the abort-imminent force can write.
        let policy =
            CheckpointPolicy { every_offers: 0, min_interval: Duration::ZERO, node_delta: 0 };
        let ck = Arc::new(Checkpointer::new(policy, |_| {}));
        let cx = ftrepair_symbolic::SymbolicContext::new();

        let healthy = Token::unbounded().with_checkpointer(Arc::clone(&ck));
        healthy.offer_checkpoint(&cx, FALSE, FALSE, FALSE);
        assert_eq!(ck.writes(), 0, "healthy token: policy says no write");

        let expired = Token::deadline_in(Duration::ZERO).with_checkpointer(Arc::clone(&ck));
        expired.offer_checkpoint(&cx, FALSE, FALSE, FALSE);
        assert_eq!(ck.writes(), 1, "imminent timeout forces the write");

        let flag = Arc::new(AtomicBool::new(true));
        let cancelled = Token::unbounded().with_flag(flag).with_checkpointer(Arc::clone(&ck));
        cancelled.offer_checkpoint(&cx, FALSE, FALSE, FALSE);
        assert_eq!(ck.writes(), 2, "imminent cancel forces the write");

        // No checkpointer attached: a silent no-op, not a panic.
        Token::unbounded().offer_checkpoint(&cx, FALSE, FALSE, FALSE);
    }

    #[test]
    fn aborted_reasons_render_for_error_bodies() {
        assert!(RepairAborted::Timeout.to_string().contains("deadline"));
        assert!(RepairAborted::Cancelled.to_string().contains("cancelled"));
        assert!(RepairAborted::ResourceExhausted.to_string().contains("node budget"));
    }
}
