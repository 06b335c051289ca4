//! Warm-start seeds for Step 1.
//!
//! A cached neighbor's invariant and fault-span BDDs (imported into the
//! current manager) let Phase 3 of Add-Masking start its forward
//! reachability from `s1 ∪ (seed ∩ universe)` instead of from `s1` alone.
//! This is sound for *any* seed: the seeded frontier only grows the
//! reachable over-approximation, and the result stays clamped to
//! `universe − ms` — exactly the span the non-heuristic mode
//! (`restrict_to_reachable = false`) uses, which the Step 1 cross-checks
//! already prove sound. Phase 4's joint fixpoint then shrinks the span to
//! the same final answer either way; what the seed buys is collapsing the
//! O(diameter) frontier expansion when the neighbor's span already covers
//! the reachable states.
//!
//! Seeds are consumed on the *first* outer iteration only — deadlock
//! retries re-enter Step 1 with a mutated safety relation, and re-seeding
//! there would just re-grow a span the retry is trying to shrink.

use ftrepair_bdd::NodeId;

/// Optional Step 1 seeds, as NodeIds in the program's own manager (import
/// cached [`ftrepair_bdd::SerializedBdd`] artifacts first).
#[derive(Clone, Copy, Debug, Default)]
pub struct WarmSeeds {
    /// A neighbor's repaired invariant.
    pub invariant: Option<NodeId>,
    /// A neighbor's fault-span.
    pub span: Option<NodeId>,
}

impl WarmSeeds {
    /// No seeds: cold behavior, bit-for-bit.
    pub fn none() -> WarmSeeds {
        WarmSeeds::default()
    }

    /// Is there anything to seed from?
    pub fn is_empty(&self) -> bool {
        self.invariant.is_none() && self.span.is_none()
    }

    /// The NodeIds that must be rooted against GC while the seeds are
    /// live.
    pub fn roots(&self) -> Vec<NodeId> {
        self.invariant.into_iter().chain(self.span).collect()
    }
}
