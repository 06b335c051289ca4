//! Tunable knobs shared by the repair algorithms — each one corresponds to
//! a design choice the paper discusses, and each has an ablation bench.

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

/// Safety bound on Algorithm 1's outer repeat loop (the cautious baseline
/// allows eight times as many iterations of its own loop).
pub const MAX_OUTER_ITERATIONS: usize = 32;

/// Options for [`crate::lazy_repair`], [`crate::cautious_repair`] and their
/// building blocks. Each field changes what a repair computes, so the
/// server's content key covers all four; limits that only bound whether a
/// run finishes (deadline, node budget) ride on its [`crate::Token`].
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
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions {
            restrict_to_reachable: true,
            step2_closed_form: true,
            use_expand_group: true,
            allow_new_terminal_inside: true,
        }
    }
}

impl RepairOptions {
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
