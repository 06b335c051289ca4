//! Mid-repair checkpointing: periodic snapshots of the fixpoint state so
//! an interrupted run (crash, drain, deadline, node budget) can resume
//! instead of restarting from zero.
//!
//! The repair loops already poll a [`Token`](crate::cancel::Token) at
//! every safe boundary; a [`Checkpointer`] rides the same boundaries. At
//! each one the loop *offers* its current `(invariant, span, ms)` roots;
//! the policy decides whether the offer becomes a write — every N
//! iterations, on a live-node delta, or *forced* when the token is about
//! to abort (the checkpoint-and-exit drain: capture the state the abort
//! would otherwise discard). A write exports the three BDDs to portable
//! [`SerializedBdd`] form and hands them to a caller-supplied sink — the
//! server and CLI point the sink at a
//! [`CheckpointStore`](../../ftrepair_store/checkpoint/struct.CheckpointStore.html)
//! slot; `crates/core` itself stays filesystem-free.
//!
//! Soundness is inherited from warm starts: a resumed run seeds Step 1's
//! Phase-3 reachability with the checkpointed invariant∪span (clamped to
//! `universe − ms`), Phase 4 shrinks any over-approximation back to the
//! same fixpoint, and the final result is re-verified with a cold-rerun
//! fallback. A stale, torn, or outright wrong checkpoint can cost time,
//! never correctness.

use ftrepair_bdd::{NodeId, SerializedBdd};
use ftrepair_symbolic::SymbolicContext;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// When an offer becomes a write.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointPolicy {
    /// Write every N offered boundaries (0 disables the cadence trigger).
    pub every_offers: u64,
    /// Suppress cadence/delta writes closer together than this — a tiny
    /// instance iterating fast should not hammer the disk. Forced writes
    /// (imminent abort) bypass the throttle.
    pub min_interval: Duration,
    /// Write when the manager's live-node count has moved at least this
    /// far since the last write (0 disables the delta trigger) — big
    /// fixpoint progress means the previous snapshot is stale.
    pub node_delta: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> CheckpointPolicy {
        CheckpointPolicy {
            every_offers: 8,
            min_interval: Duration::from_millis(200),
            node_delta: 1 << 20,
        }
    }
}

/// One captured snapshot, already exported to manager-independent form.
#[derive(Clone, Debug)]
pub struct CheckpointImage {
    /// Monotone offer index the snapshot was taken at (diagnostic).
    pub iteration: u64,
    /// The repair invariant candidate at the boundary.
    pub invariant: SerializedBdd,
    /// The fault span at the boundary.
    pub span: SerializedBdd,
    /// The unmaskable set `ms` at the boundary.
    pub ms: SerializedBdd,
    /// Live nodes in the manager when the snapshot was taken.
    pub live_nodes: usize,
}

type Sink = dyn Fn(&CheckpointImage) + Send + Sync;

struct State {
    offers: u64,
    last_write: Option<Instant>,
    last_nodes: usize,
}

/// The policy + sink pair a [`Token`](crate::cancel::Token) carries into
/// the repair loops. Shared behind an `Arc`; all methods take `&self`.
pub struct Checkpointer {
    policy: CheckpointPolicy,
    sink: Box<Sink>,
    state: Mutex<State>,
    writes: AtomicU64,
}

impl std::fmt::Debug for Checkpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpointer")
            .field("policy", &self.policy)
            .field("writes", &self.writes.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Checkpointer {
    /// A checkpointer writing through `sink` under `policy`.
    pub fn new(
        policy: CheckpointPolicy,
        sink: impl Fn(&CheckpointImage) + Send + Sync + 'static,
    ) -> Checkpointer {
        Checkpointer {
            policy,
            sink: Box::new(sink),
            state: Mutex::new(State { offers: 0, last_write: None, last_nodes: 0 }),
            writes: AtomicU64::new(0),
        }
    }

    /// Snapshots written so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Offer the loop's current roots. `abort_imminent` forces the write
    /// (the caller is about to unwind; this boundary is the last chance).
    pub fn offer(
        &self,
        cx: &SymbolicContext,
        invariant: NodeId,
        span: NodeId,
        ms: NodeId,
        abort_imminent: bool,
    ) {
        let live_nodes = cx.mgr_ref().stats().live_nodes;
        let (write, offers) = {
            let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            st.offers += 1;
            let cadence_due =
                self.policy.every_offers > 0 && st.offers.is_multiple_of(self.policy.every_offers);
            let delta_due = self.policy.node_delta > 0
                && live_nodes.abs_diff(st.last_nodes) >= self.policy.node_delta;
            let throttled = st.last_write.is_some_and(|t| t.elapsed() < self.policy.min_interval);
            let write = abort_imminent || ((cadence_due || delta_due) && !throttled);
            if write {
                st.last_write = Some(Instant::now());
                st.last_nodes = live_nodes;
            }
            (write, st.offers)
        };
        if !write {
            return;
        }
        let mgr = cx.mgr_ref();
        let image = CheckpointImage {
            iteration: offers,
            invariant: mgr.export(invariant),
            span: mgr.export(span),
            ms: mgr.export(ms),
            live_nodes,
        };
        (self.sink)(&image);
        self.writes.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftrepair_bdd::FALSE;
    use std::sync::Arc;

    fn cx() -> SymbolicContext {
        let mut cx = SymbolicContext::new();
        cx.add_var("a", 2);
        cx.add_var("b", 2);
        cx
    }

    fn collector() -> (Arc<Mutex<Vec<u64>>>, impl Fn(&CheckpointImage) + Send + Sync) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        (seen, move |img: &CheckpointImage| sink_seen.lock().unwrap().push(img.iteration))
    }

    #[test]
    fn cadence_writes_every_n_offers() {
        let (seen, sink) = collector();
        let policy =
            CheckpointPolicy { every_offers: 4, min_interval: Duration::ZERO, node_delta: 0 };
        let ck = Checkpointer::new(policy, sink);
        let cx = cx();
        for _ in 0..12 {
            ck.offer(&cx, FALSE, FALSE, FALSE, false);
        }
        assert_eq!(*seen.lock().unwrap(), vec![4, 8, 12]);
        assert_eq!(ck.writes(), 3);
    }

    #[test]
    fn min_interval_throttles_cadence_but_not_forced_writes() {
        let (_seen, sink) = collector();
        let policy = CheckpointPolicy {
            every_offers: 1,
            min_interval: Duration::from_secs(3600),
            node_delta: 0,
        };
        let ck = Checkpointer::new(policy, sink);
        let cx = cx();
        ck.offer(&cx, FALSE, FALSE, FALSE, false);
        ck.offer(&cx, FALSE, FALSE, FALSE, false);
        assert_eq!(ck.writes(), 1, "second cadence write throttled");
        ck.offer(&cx, FALSE, FALSE, FALSE, true);
        assert_eq!(ck.writes(), 2, "imminent abort bypasses the throttle");
    }

    #[test]
    fn disabled_triggers_never_write_without_force() {
        let (_seen, sink) = collector();
        let policy =
            CheckpointPolicy { every_offers: 0, min_interval: Duration::ZERO, node_delta: 0 };
        let ck = Checkpointer::new(policy, sink);
        let cx = cx();
        for _ in 0..32 {
            ck.offer(&cx, FALSE, FALSE, FALSE, false);
        }
        assert_eq!(ck.writes(), 0);
    }

    #[test]
    fn image_carries_exported_roots() {
        let images = Arc::new(Mutex::new(Vec::new()));
        let sink_images = Arc::clone(&images);
        let policy =
            CheckpointPolicy { every_offers: 1, min_interval: Duration::ZERO, node_delta: 0 };
        let ck = Checkpointer::new(policy, move |img: &CheckpointImage| {
            sink_images.lock().unwrap().push(img.clone());
        });
        let mut cx = cx();
        let v0 = cx.mgr().var(0);
        let v1 = cx.mgr().var(1);
        let both = cx.mgr().and(v0, v1);
        ck.offer(&cx, both, v0, FALSE, false);
        let images = images.lock().unwrap();
        assert_eq!(images.len(), 1);
        let mut fresh = ftrepair_bdd::Manager::new(4);
        let back = fresh.try_import(&images[0].invariant).expect("imports");
        for bits in 0..4u32 {
            let a: Vec<bool> = (0..4).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(fresh.eval(back, &a), a[0] && a[1], "bits={bits}");
        }
        assert_eq!(images[0].ms.root, 0, "FALSE exports as terminal 0");
    }
}
