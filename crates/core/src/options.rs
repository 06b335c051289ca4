//! Tunable knobs shared by the repair algorithms — each one corresponds to
//! a design choice the paper discusses, and each has an ablation bench.

use std::time::Duration;

/// Live-node count at which a repair's governance checkpoint first
/// collects garbage (see `ftrepair_bdd::Manager::maybe_gc`). Each
/// collection re-arms the trigger at twice the surviving size — never below
/// this floor. Fixpoint growth is mostly dead intermediates, so collecting
/// at the checkpoints bounds the peak.
///
/// Calibrated well above the peaks of the small case-study instances
/// (byzantine agreement through n=6 stays under 180k nodes and solves in
/// milliseconds — any collection there costs more than it saves), and below
/// the multi-million-node peaks of the big Table III chains, where the
/// collections cut peak memory ~3× at neutral-to-better wall-clock.
pub const GC_THRESHOLD: usize = 400_000;

/// Options for [`crate::lazy_repair`], [`crate::cautious_repair`] and their
/// building blocks.
#[derive(Clone, Copy, Debug)]
pub struct RepairOptions {
    /// Restrict Step 1's fault-span search to states reachable by the
    /// fault-intolerant program in the presence of faults (Section V-A).
    /// The paper observes that *pure* lazy repair (this off) does not beat
    /// cautious repair; with the heuristic it does.
    pub restrict_to_reachable: bool,
    /// Enforce the read restriction with the closed-form set computation
    /// `δ_j = Δ_j − group(group(Δ_j) − Δ_j)` (two symbolic group
    /// operations) instead of Algorithm 2's transition-at-a-time loop.
    /// Produces the identical result — groups are disjoint equivalence
    /// classes, so the loop's fixpoint is exactly the union of fully
    /// contained classes — but orders of magnitude faster; this is the
    /// set-level formulation a BDD-based tool actually executes.
    pub step2_closed_form: bool,
    /// Use `ExpandGroup` in Step 2 (Section V-B) to absorb exponentially
    /// many sibling groups per iteration. Only meaningful for the
    /// iterative strategy (`step2_closed_form = false`).
    pub use_expand_group: bool,
    /// Accept states that lose *all* their transitions inside the repaired
    /// invariant as legal termination points (Definition 18 stutters them).
    /// Sound whenever the specification has no leads-to liveness inside the
    /// invariant — true for all of the paper's case studies, where e.g. a
    /// byzantine-agreement process that can never finalize safely simply
    /// stops. With `false`, such states are evicted from `S'` instead
    /// (strict preservation of potential liveness, at the cost of a much
    /// smaller invariant).
    pub allow_new_terminal_inside: bool,
    /// Safety bound on Algorithm 1's outer repeat loop.
    pub max_outer_iterations: usize,
    /// Wall-clock budget for the whole repair. `None` (the default) runs
    /// unbounded; `Some(d)` arms a [`crate::cancel::Token`] deadline at
    /// entry, and every fixpoint loop aborts with
    /// [`crate::cancel::RepairAborted::Timeout`] once it passes. Not part
    /// of the result — two runs differing only in deadline compute the same
    /// repair (or one aborts), which is why the server's content-address
    /// fingerprint excludes it.
    pub deadline: Option<Duration>,
    /// Live-node budget for the repair's BDD manager. `0` (the default)
    /// runs unbounded; a positive value makes the arena's governance
    /// checkpoints garbage-collect when the live count crosses it and, if
    /// the collection alone cannot get back under, abort the run with
    /// [`crate::cancel::RepairAborted::ResourceExhausted`] at the next
    /// cancellation boundary — a clean 503/exit-125 instead of an OOM
    /// kill. Like `deadline`, this bounds *whether* a repair finishes, not
    /// what it computes, so the server's content-address fingerprint
    /// excludes it.
    pub max_nodes: usize,
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions {
            restrict_to_reachable: true,
            step2_closed_form: true,
            use_expand_group: true,
            allow_new_terminal_inside: true,
            max_outer_iterations: 32,
            deadline: None,
            max_nodes: 0,
        }
    }
}

impl RepairOptions {
    /// The paper's configuration: heuristic on, ExpandGroup on, sequential.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Pure lazy repair (no reachability heuristic) — the configuration the
    /// paper reports as *not* improving on cautious repair.
    pub fn pure_lazy() -> Self {
        RepairOptions { restrict_to_reachable: false, ..Self::default() }
    }

    /// Algorithm 2 exactly as printed in the paper: the iterative
    /// pick-a-transition loop with `ExpandGroup`. Same outputs as the
    /// closed form; used by the ablation benches.
    pub fn iterative_step2() -> Self {
        RepairOptions { step2_closed_form: false, ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_configuration() {
        let o = RepairOptions::default();
        assert!(o.restrict_to_reachable);
        assert!(o.step2_closed_form);
        assert!(o.use_expand_group);
        assert!(o.allow_new_terminal_inside);
        assert_eq!(o.max_outer_iterations, 32);
        assert!(o.deadline.is_none(), "no deadline unless a caller opts in");
        assert_eq!(o.max_nodes, 0, "no node budget unless a caller opts in");
        let p = RepairOptions::paper();
        assert_eq!(format!("{o:?}"), format!("{p:?}"));
    }

    #[test]
    fn pure_lazy_disables_only_the_heuristic() {
        let o = RepairOptions::pure_lazy();
        assert!(!o.restrict_to_reachable);
        assert!(o.step2_closed_form);
    }

    #[test]
    fn iterative_step2_keeps_expand_group() {
        let o = RepairOptions::iterative_step2();
        assert!(!o.step2_closed_form);
        assert!(o.use_expand_group);
    }
}
