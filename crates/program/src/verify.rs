//! Independent verification of repair outputs.
//!
//! The repair algorithms are intricate; rather than trusting them, every
//! experiment and test can re-check their output against the definitions:
//! masking fault-tolerance (Definition 15) via [`verify_masking`], and
//! realizability (Definitions 19/20) via [`verify_realizability`].
//!
//! [`verify_masking`] is the exact oracle: it recomputes the fault-span as
//! the least fixpoint of reachability from `S'` under `δ' ∪ f`. A repair
//! already returns a fault-span `T'`, and [`verify_masking_certified`]
//! treats it as a certificate: if `T'` contains `S'` and is closed under
//! `δ' ∪ f`, it contains the least fixpoint, and since every check that
//! reads the span is monotone in it, passing on `T'` means passing on the
//! fixpoint. Any other outcome falls back to the oracle, so both entries
//! return the same verdicts on every input.

use crate::model::{DistributedProgram, Process};
use crate::realizability;
use crate::semantics;
use crate::spec::Safety;
use ftrepair_bdd::{NodeId, FALSE};
use ftrepair_symbolic::SymbolicContext;

/// Result of checking masking fault-tolerance. The program is masking
/// `f`-tolerant (per Definition 15, plus the repair-problem side conditions)
/// iff [`MaskingReport::ok`] returns `true`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MaskingReport {
    /// `S' ≠ ∅` — the repair did not collapse the invariant.
    pub invariant_nonempty: bool,
    /// `S' ⊆ S` — repair-problem requirement.
    pub invariant_shrunk: bool,
    /// `δ'|S' ⊆ δ|S'` — no new behavior inside the invariant.
    pub no_new_behavior: bool,
    /// `S'` closed in `δ'` (Definition 10/11).
    pub invariant_closed: bool,
    /// No state of `S'` deadlocks in `δ'` *unless* it already deadlocked in
    /// `δ` (terminal states of the original program stay legal).
    pub no_new_deadlocks_inside: bool,
    /// In the presence of faults, no reachable safety violation: no bad
    /// state in `T'`, no bad transition executable from `T'`.
    pub safe_under_faults: bool,
    /// Every fault-span state recovers: no deadlock and no infinite
    /// program-only path inside `T' − S'`.
    pub recovery_guaranteed: bool,
    /// The span-side checks passed on a claimed fault-span, so no least
    /// fixpoint was computed ([`verify_masking_certified`]). How the
    /// verdict was reached, not part of it: [`MaskingReport::ok`] and
    /// [`MaskingReport::ok_strict`] ignore it.
    pub span_certified: bool,
}

impl MaskingReport {
    /// All checks required by Definition 15 passed. New terminal states
    /// inside the invariant are *allowed*: under Definition 18 they
    /// stutter, which refines every safety property; only specifications
    /// with leads-to liveness inside the invariant could object — use
    /// [`MaskingReport::ok_strict`] for those.
    pub fn ok(&self) -> bool {
        self.invariant_nonempty
            && self.invariant_shrunk
            && self.no_new_behavior
            && self.invariant_closed
            && self.safe_under_faults
            && self.recovery_guaranteed
    }

    /// Like [`MaskingReport::ok`], additionally requiring that no state of
    /// `S'` deadlocks unless it already did in the original program —
    /// what repairs produced with
    /// `RepairOptions::allow_new_terminal_inside = false` guarantee.
    pub fn ok_strict(&self) -> bool {
        self.ok() && self.no_new_deadlocks_inside
    }
}

/// Verify masking fault-tolerance of a repaired program.
///
/// * `orig_trans`, `orig_inv` — the fault-intolerant program (`δ_P` as the
///   raw union of process transitions, *without* stuttering completion —
///   stuttering is applied internally where Definition 18 requires it), and
///   its invariant `S`,
/// * `new_trans`, `new_inv` — the candidate (`δ_P'`, `S'`),
/// * `faults`, `safety` — the fault class and safety specification.
///
/// Returns the full breakdown; use [`MaskingReport::ok`] for the verdict.
pub fn verify_masking(
    cx: &mut SymbolicContext,
    orig_trans: NodeId,
    orig_inv: NodeId,
    new_trans: NodeId,
    new_inv: NodeId,
    faults: NodeId,
    safety: &Safety,
) -> MaskingReport {
    let report = invariant_checks(cx, orig_trans, orig_inv, new_trans, new_inv);
    least_span_checks(cx, report, new_trans, new_inv, faults, safety)
}

/// [`verify_masking`] of `prog` against the candidate (`new_trans`,
/// `new_inv`), with `span` — the fault-span `T'` the repair claims — as a
/// certificate. The span-side checks run on `T' ∩ universe` when it
/// contains `S'` and is closed under `δ' ∪ f`; if that fails, or any check
/// fails on it (a strict superset of the least fixpoint may hold bad
/// states the program never reaches), the report is [`verify_masking`]'s.
/// Every check field therefore equals the oracle's on every input;
/// [`MaskingReport::span_certified`] says which path decided.
pub fn verify_masking_certified(
    prog: &mut DistributedProgram,
    new_trans: NodeId,
    new_inv: NodeId,
    span: NodeId,
) -> MaskingReport {
    let orig_trans = prog.program_trans();
    let (orig_inv, faults, safety) = (prog.invariant, prog.faults, prog.safety);
    let cx = &mut prog.cx;
    let report = invariant_checks(cx, orig_trans, orig_inv, new_trans, new_inv);

    let combined = cx.mgr().or(new_trans, faults);
    let universe = cx.state_universe();
    let span = cx.mgr().and(span, universe);
    let executable = cx.mgr().and(combined, span);
    let primed = cx.as_next(span);
    if cx.mgr().leq(new_inv, span)
        && cx.mgr().leq(executable, primed)
        && span_checks(cx, new_trans, new_inv, &safety, span, executable) == (true, true)
    {
        return MaskingReport {
            safe_under_faults: true,
            recovery_guaranteed: true,
            span_certified: true,
            ..report
        };
    }
    least_span_checks(cx, report, new_trans, new_inv, faults, &safety)
}

/// The checks that do not read the fault-span. The span-side fields are
/// left `false` for [`least_span_checks`] or the certificate to fill in.
fn invariant_checks(
    cx: &mut SymbolicContext,
    orig_trans: NodeId,
    orig_inv: NodeId,
    new_trans: NodeId,
    new_inv: NodeId,
) -> MaskingReport {
    let invariant_nonempty = new_inv != FALSE;
    let invariant_shrunk = cx.mgr().leq(new_inv, orig_inv);

    // Inside the invariant the candidate may use original transitions and
    // (harmless) stutters at originally-terminal states — Definition 18
    // puts those self-loops in δ_P.
    let orig_full = semantics::full_program_trans(cx, orig_trans);
    let new_inside = semantics::project(cx, new_trans, new_inv);
    let orig_inside = semantics::project(cx, orig_full, new_inv);
    let no_new_behavior = cx.mgr().leq(new_inside, orig_inside);

    let invariant_closed = semantics::is_closed(cx, new_inv, new_trans);

    // A state of S' may deadlock only if it deadlocked in the original
    // (raw) program — then Definition 18's stuttering makes it a legal
    // fixpoint rather than a violation.
    let new_dead = cx.deadlocks(new_inv, new_trans);
    let orig_dead = cx.deadlocks(new_inv, orig_trans);
    let no_new_deadlocks_inside = cx.mgr().leq(new_dead, orig_dead);

    MaskingReport {
        invariant_nonempty,
        invariant_shrunk,
        no_new_behavior,
        invariant_closed,
        no_new_deadlocks_inside,
        safe_under_faults: false,
        recovery_guaranteed: false,
        span_certified: false,
    }
}

/// Fill in `report`'s span-side fields on the exact fault-span: everything
/// reachable from S' under δ' ∪ f.
fn least_span_checks(
    cx: &mut SymbolicContext,
    report: MaskingReport,
    new_trans: NodeId,
    new_inv: NodeId,
    faults: NodeId,
    safety: &Safety,
) -> MaskingReport {
    let combined = cx.mgr().or(new_trans, faults);
    let span = cx.forward_reachable(new_inv, combined);
    let executable = cx.mgr().and(combined, span);
    let (safe_under_faults, recovery_guaranteed) =
        span_checks(cx, new_trans, new_inv, safety, span, executable);
    MaskingReport { safe_under_faults, recovery_guaranteed, span_certified: false, ..report }
}

/// `(safe_under_faults, recovery_guaranteed)` on the fault-span `span`,
/// where `executable` is `(δ' ∪ f) ∧ span`. Both are monotone in `span`:
/// a bigger span has more states and steps that can be bad, more states
/// that can deadlock, and a bigger greatest fixpoint of avoiding paths.
fn span_checks(
    cx: &mut SymbolicContext,
    new_trans: NodeId,
    new_inv: NodeId,
    safety: &Safety,
    span: NodeId,
    executable: NodeId,
) -> (bool, bool) {
    // Safety under faults: no reachable bad state; no executable bad
    // transition out of the span.
    let bad_reach = cx.mgr().and(span, safety.bad_states);
    let bad_exec = cx.mgr().and(executable, safety.bad_trans);
    let safe_under_faults = bad_reach == FALSE && bad_exec == FALSE;

    // Recovery: outside the invariant (but inside the span), the program
    // alone must make progress toward S' on *every* computation:
    //  (a) no deadlock in T' − S',
    //  (b) no infinite program path avoiding S' — i.e. the greatest fixpoint
    //      of X ↦ X ∩ pre_δ'(X), started from T' − S', is empty.
    let outside = cx.mgr().diff(span, new_inv);
    let dead_outside = cx.deadlocks(outside, new_trans);
    let mut avoid = outside;
    loop {
        let has_successor_in_avoid = cx.preimage(avoid, new_trans);
        let next = cx.mgr().and(avoid, has_successor_in_avoid);
        if next == avoid {
            break;
        }
        avoid = next;
    }
    let recovery_guaranteed = dead_outside == FALSE && avoid == FALSE;
    (safe_under_faults, recovery_guaranteed)
}

/// Check one leads-to property `L ↝ T` (Definition 8) of computations that
/// stay within `region` under `trans`, with no fairness assumption: the
/// property holds iff no computation starting at a reachable `L`-state can
/// avoid `T` forever (by deadlocking or cycling in `¬T`).
///
/// Stuttering semantics is respected: a state with no outgoing transition
/// stutters forever, which avoids `T` unless the state itself is in `T`.
pub fn check_leads_to(
    cx: &mut SymbolicContext,
    region: NodeId,
    trans: NodeId,
    l: NodeId,
    t: NodeId,
) -> bool {
    // States inside the region from which SOME computation avoids T:
    // greatest fixpoint of X = (region − T) ∩ (deadlock ∨ pre(X)).
    let region_trans = semantics::project(cx, trans, region);
    let not_t = {
        let r = cx.mgr().diff(region, t);
        r
    };
    let dead = cx.deadlocks(not_t, region_trans);
    let mut avoid = not_t;
    loop {
        let has_succ_in_avoid = cx.preimage(avoid, region_trans);
        let keep = cx.mgr().or(dead, has_succ_in_avoid);
        let next = cx.mgr().and(avoid, keep);
        if next == avoid {
            break;
        }
        avoid = next;
    }
    // L ↝ T fails iff some reachable L-state can avoid T.
    let l_in_region = {
        let a = cx.mgr().and(l, region);
        cx.mgr().diff(a, t) // L-states already in T satisfy immediately
    };
    cx.mgr().disjoint(l_in_region, avoid)
}

/// Check a whole [`crate::spec::Liveness`] within `region` under `trans`.
pub fn check_liveness(
    cx: &mut SymbolicContext,
    region: NodeId,
    trans: NodeId,
    liveness: &crate::spec::Liveness,
) -> Vec<bool> {
    liveness.leads_to.iter().map(|&(l, t)| check_leads_to(cx, region, trans, l, t)).collect()
}

/// Result of checking Definitions 19/20 on a set of per-process transition
/// predicates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RealizabilityReport {
    /// Per process: does `δ_j` respect the write restriction?
    pub write_ok: Vec<bool>,
    /// Per process: is `δ_j` group-closed under the read restriction?
    pub read_ok: Vec<bool>,
}

impl RealizabilityReport {
    /// All processes pass both restrictions.
    pub fn ok(&self) -> bool {
        self.write_ok.iter().all(|&b| b) && self.read_ok.iter().all(|&b| b)
    }
}

/// Check realizability of candidate per-process transition predicates
/// against the read/write sets of `prog`'s processes.
pub fn verify_realizability(
    prog: &mut DistributedProgram,
    candidate: &[Process],
) -> RealizabilityReport {
    assert_eq!(candidate.len(), prog.processes.len(), "process count mismatch");
    let mut write_ok = Vec::new();
    let mut read_ok = Vec::new();
    for (j, cand) in candidate.iter().enumerate() {
        let unwritable = prog.unwritable(j);
        let ok = realizability::write_ok(&mut prog.cx, &unwritable);
        write_ok.push(prog.cx.mgr().leq(cand.trans, ok));
        let unreadable = prog.unreadable(j);
        read_ok.push(realizability::is_group_closed(&mut prog.cx, &unreadable, cand.trans));
    }
    RealizabilityReport { write_ok, read_ok }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ProgramBuilder, Update};
    use ftrepair_bdd::TRUE;

    /// A toy system that is already masking tolerant: x ∈ {0,1,2,3};
    /// the program toggles x between 0 and 1 inside the invariant {0,1};
    /// the fault pushes x from 1 to 2; recovery 2→0 exists. x = 3 is never
    /// reached, but recovers too (3→0).
    fn tolerant() -> DistributedProgram {
        let mut b = ProgramBuilder::new("toy");
        let x = b.var("x", 4);
        b.process("p", &[x], &[x]);
        let g0 = b.cx().assign_eq(x, 0);
        b.action(g0, &[(x, Update::Const(1))]);
        let g1 = b.cx().assign_eq(x, 1);
        b.action(g1, &[(x, Update::Const(0))]);
        let g2 = b.cx().assign_eq(x, 2);
        b.action(g2, &[(x, Update::Const(0))]);
        let g3 = b.cx().assign_eq(x, 3);
        b.action(g3, &[(x, Update::Const(0))]);
        let inv = {
            let a = b.cx().assign_eq(x, 0);
            let c = b.cx().assign_eq(x, 1);
            b.cx().mgr().or(a, c)
        };
        b.invariant(inv);
        let fg = b.cx().assign_eq(x, 1);
        b.fault_action(fg, &[(x, Update::Const(2))]);
        b.build()
    }

    /// Verify `p` against the candidate both ways, with `span` as the
    /// certificate: the certified report must equal the oracle's on every
    /// check field.
    fn certified(
        p: &mut DistributedProgram,
        new_trans: NodeId,
        new_inv: NodeId,
        span: NodeId,
    ) -> MaskingReport {
        let orig = p.program_trans();
        let (inv, faults, safety) = (p.invariant, p.faults, p.safety);
        let exact = verify_masking(&mut p.cx, orig, inv, new_trans, new_inv, faults, &safety);
        let r = verify_masking_certified(p, new_trans, new_inv, span);
        assert_eq!(MaskingReport { span_certified: false, ..r }, exact);
        r
    }

    /// The toy's states `values` as one set.
    fn states(p: &mut DistributedProgram, values: &[u64]) -> NodeId {
        let x = p.cx.find_var("x").unwrap();
        let mut acc = FALSE;
        for &v in values {
            let s = p.cx.assign_eq(x, v);
            acc = p.cx.mgr().or(acc, s);
        }
        acc
    }

    #[test]
    fn honest_span_certifies() {
        let mut p = tolerant();
        let (t, inv) = (p.program_trans(), p.invariant);
        let span = states(&mut p, &[0, 1, 2]);
        let r = certified(&mut p, t, inv, span);
        assert!(r.span_certified && r.ok(), "{r:?}");
    }

    #[test]
    fn unclosed_span_falls_back() {
        // The fault step 1→2 leaves {0,1}.
        let mut p = tolerant();
        let (t, inv) = (p.program_trans(), p.invariant);
        let span = states(&mut p, &[0, 1]);
        let r = certified(&mut p, t, inv, span);
        assert!(!r.span_certified && r.ok(), "{r:?}");
    }

    #[test]
    fn span_missing_invariant_states_falls_back() {
        let mut p = tolerant();
        let (t, inv) = (p.program_trans(), p.invariant);
        let span = states(&mut p, &[1, 2]);
        let r = certified(&mut p, t, inv, span);
        assert!(!r.span_certified && r.ok(), "{r:?}");
    }

    #[test]
    fn bad_unreachable_state_in_span_needs_the_fallback() {
        // The whole universe is closed and recovers, but holds the bad
        // state 3, which no computation reaches: the certificate fails,
        // and only the least fixpoint shows the program is safe.
        let mut p = tolerant();
        let bad = states(&mut p, &[3]);
        p.safety = Safety { bad_states: bad, bad_trans: FALSE };
        let (t, inv) = (p.program_trans(), p.invariant);
        let universe = p.cx.state_universe();
        let r = certified(&mut p, t, inv, universe);
        assert!(!r.span_certified && r.ok(), "{r:?}");
    }

    #[test]
    fn dropped_recovery_is_caught_through_the_certificate() {
        let mut p = tolerant();
        let (t, inv) = (p.program_trans(), p.invariant);
        let recovery = p.cx.transition_cube(&[2], &[0]);
        let crippled = p.cx.mgr().diff(t, recovery);
        let span = states(&mut p, &[0, 1, 2]);
        let r = certified(&mut p, crippled, inv, span);
        assert!(!r.span_certified && !r.recovery_guaranteed, "{r:?}");
    }

    #[test]
    fn added_bad_transition_is_caught_through_the_certificate() {
        let mut p = tolerant();
        let bad = p.cx.transition_cube(&[2], &[1]);
        p.safety = Safety { bad_states: FALSE, bad_trans: bad };
        let (t, inv) = (p.program_trans(), p.invariant);
        let with_bad = p.cx.mgr().or(t, bad);
        let span = states(&mut p, &[0, 1, 2]);
        let r = certified(&mut p, with_bad, inv, span);
        assert!(!r.span_certified && !r.safe_under_faults, "{r:?}");
    }

    #[test]
    fn tolerant_program_verifies() {
        let mut p = tolerant();
        let t = p.program_trans();
        let (inv, faults) = (p.invariant, p.faults);
        let safety = p.safety;
        let r = verify_masking(&mut p.cx, t, inv, t, inv, faults, &safety);
        assert!(r.ok(), "{r:?}");
    }

    #[test]
    fn missing_recovery_is_caught() {
        let mut p = tolerant();
        // Remove the recovery action 2→0.
        let x = p.cx.find_var("x").unwrap();
        let g2 = p.cx.assign_eq(x, 2);
        let ng2 = p.cx.mgr().not(g2);
        let t = p.program_trans();
        let crippled = p.cx.mgr().and(t, ng2);
        let (inv, faults) = (p.invariant, p.faults);
        let safety = p.safety;
        let r = verify_masking(&mut p.cx, t, inv, crippled, inv, faults, &safety);
        assert!(!r.recovery_guaranteed);
        assert!(!r.ok());
    }

    #[test]
    fn cycles_outside_invariant_are_caught() {
        // Recovery exists but a 2→2 self-loop lets the program dawdle
        // forever: every-computation recovery fails.
        let mut p = tolerant();
        let loop2 = p.cx.transition_cube(&[2], &[2]);
        let t = p.program_trans();
        let with_loop = p.cx.mgr().or(t, loop2);
        let (inv, faults) = (p.invariant, p.faults);
        let safety = p.safety;
        let r = verify_masking(&mut p.cx, t, inv, with_loop, inv, faults, &safety);
        assert!(!r.recovery_guaranteed);
    }

    #[test]
    fn reachable_bad_state_is_caught() {
        let mut p = tolerant();
        let x = p.cx.find_var("x").unwrap();
        let bad = p.cx.assign_eq(x, 2); // the fault state itself is now bad
        let safety = Safety { bad_states: bad, bad_trans: FALSE };
        let t = p.program_trans();
        let (inv, faults) = (p.invariant, p.faults);
        let r = verify_masking(&mut p.cx, t, inv, t, inv, faults, &safety);
        assert!(!r.safe_under_faults);
    }

    #[test]
    fn bad_transition_executable_is_caught() {
        let mut p = tolerant();
        let bt = p.cx.transition_cube(&[2], &[0]); // recovery declared bad
        let safety = Safety { bad_states: FALSE, bad_trans: bt };
        let t = p.program_trans();
        let (inv, faults) = (p.invariant, p.faults);
        let r = verify_masking(&mut p.cx, t, inv, t, inv, faults, &safety);
        assert!(!r.safe_under_faults);
    }

    #[test]
    fn new_behavior_inside_invariant_is_caught() {
        let mut p = tolerant();
        let extra = p.cx.transition_cube(&[0], &[0]); // 0→0 not in original
        let t = p.program_trans();
        let bigger = p.cx.mgr().or(t, extra);
        let (inv, faults) = (p.invariant, p.faults);
        let safety = p.safety;
        let r = verify_masking(&mut p.cx, t, inv, bigger, inv, faults, &safety);
        assert!(!r.no_new_behavior);
    }

    #[test]
    fn grown_invariant_is_caught() {
        let mut p = tolerant();
        let t = p.program_trans();
        let (inv, faults) = (p.invariant, p.faults);
        let safety = p.safety;
        let r = verify_masking(&mut p.cx, t, inv, t, TRUE, faults, &safety);
        assert!(!r.invariant_shrunk);
    }

    #[test]
    fn empty_invariant_is_caught() {
        let mut p = tolerant();
        let t = p.program_trans();
        let (inv, faults) = (p.invariant, p.faults);
        let safety = p.safety;
        let r = verify_masking(&mut p.cx, t, inv, t, FALSE, faults, &safety);
        assert!(!r.invariant_nonempty);
    }

    #[test]
    fn leads_to_holds_on_progressing_cycle() {
        // 0 → 1 → 2 → 0: from L = {0}, T = {2} is always eventually reached.
        let mut b = ProgramBuilder::new("cycle");
        let x = b.var("x", 3);
        b.process("p", &[x], &[x]);
        for v in 0..3u64 {
            let g = b.cx().assign_eq(x, v);
            b.action(g, &[(x, Update::Const((v + 1) % 3))]);
        }
        b.invariant(TRUE);
        let mut p = b.build();
        let t = p.program_trans();
        let x = p.cx.find_var("x").unwrap();
        let l = p.cx.assign_eq(x, 0);
        let tt = p.cx.assign_eq(x, 2);
        assert!(verify_leads_to_wrapper(&mut p, t, l, tt));
    }

    #[test]
    fn leads_to_fails_on_branching_escape() {
        // 0 → 1 and 0 → 0 (self-loop): from L = {0}, T = {1} can be avoided
        // forever by looping.
        let mut b = ProgramBuilder::new("branch");
        let x = b.var("x", 2);
        b.process("p", &[x], &[x]);
        b.invariant(TRUE);
        let mut p = b.build();
        let t01 = p.cx.transition_cube(&[0], &[1]);
        let t00 = p.cx.transition_cube(&[0], &[0]);
        let t = p.cx.mgr().or(t01, t00);
        let x = p.cx.find_var("x").unwrap();
        let l = p.cx.assign_eq(x, 0);
        let tt = p.cx.assign_eq(x, 1);
        assert!(!verify_leads_to_wrapper(&mut p, t, l, tt));
    }

    #[test]
    fn leads_to_fails_on_terminal_l_state() {
        // L-state with no transitions stutters forever outside T.
        let mut b = ProgramBuilder::new("stuck");
        let x = b.var("x", 2);
        b.process("p", &[x], &[x]);
        b.invariant(TRUE);
        let mut p = b.build();
        let x = p.cx.find_var("x").unwrap();
        let l = p.cx.assign_eq(x, 0);
        let tt = p.cx.assign_eq(x, 1);
        assert!(!verify_leads_to_wrapper(&mut p, FALSE, l, tt));
        // …but trivially holds when L ⊆ T.
        assert!(verify_leads_to_wrapper(&mut p, FALSE, l, l));
    }

    fn verify_leads_to_wrapper(
        p: &mut DistributedProgram,
        trans: ftrepair_bdd::NodeId,
        l: ftrepair_bdd::NodeId,
        t: ftrepair_bdd::NodeId,
    ) -> bool {
        let region = p.cx.state_universe();
        check_leads_to(&mut p.cx, region, trans, l, t)
    }

    #[test]
    fn check_liveness_reports_per_property() {
        let mut b = ProgramBuilder::new("multi");
        let x = b.var("x", 3);
        b.process("p", &[x], &[x]);
        let g0 = b.cx().assign_eq(x, 0);
        b.action(g0, &[(x, Update::Const(1))]);
        b.invariant(TRUE);
        let mut p = b.build();
        let t = p.program_trans();
        let x = p.cx.find_var("x").unwrap();
        let s0 = p.cx.assign_eq(x, 0);
        let s1 = p.cx.assign_eq(x, 1);
        let s2 = p.cx.assign_eq(x, 2);
        let mut lv = crate::spec::Liveness::none();
        lv.add(s0, s1); // holds: 0 → 1
        lv.add(s0, s2); // fails: 2 unreachable from 0
        let region = p.cx.state_universe();
        let results = check_liveness(&mut p.cx, region, t, &lv);
        assert_eq!(results, vec![true, false]);
    }

    #[test]
    fn realizability_report_on_builder_output() {
        // Builder-produced actions read the full state in their guards; a
        // process that reads everything is always group-closed.
        let mut p = tolerant();
        let procs = p.processes.clone();
        let r = verify_realizability(&mut p, &procs);
        assert!(r.ok(), "{r:?}");
    }

    #[test]
    fn realizability_catches_write_violation() {
        let mut b = ProgramBuilder::new("wv");
        let x = b.var("x", 2);
        let y = b.var("y", 2);
        b.process("p", &[x, y], &[x]);
        b.invariant(TRUE);
        let mut p = b.build();
        // Hand the verifier a δ_j that writes y.
        let t = p.cx.transition_cube(&[0, 0], &[0, 1]);
        let cand = vec![Process {
            name: "p".into(),
            read: p.processes[0].read.clone(),
            write: p.processes[0].write.clone(),
            trans: t,
        }];
        let r = verify_realizability(&mut p, &cand);
        assert_eq!(r.write_ok, vec![false]);
        assert!(!r.ok());
    }

    #[test]
    fn realizability_catches_read_violation() {
        let mut b = ProgramBuilder::new("rv");
        let x = b.var("x", 2);
        let _y = b.var("y", 2);
        b.process("p", &[x], &[x]); // cannot read y
        b.invariant(TRUE);
        let mut p = b.build();
        // δ_j that moves x only when y=0: depends on an unreadable var.
        let t = p.cx.transition_cube(&[0, 0], &[1, 0]);
        let cand = vec![Process {
            name: "p".into(),
            read: p.processes[0].read.clone(),
            write: p.processes[0].write.clone(),
            trans: t,
        }];
        let r = verify_realizability(&mut p, &cand);
        assert_eq!(r.write_ok, vec![true]);
        assert_eq!(r.read_ok, vec![false]);
    }
}
