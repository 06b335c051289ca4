//! Step 1's allowed relation, Step 2's Line 5 and Step 2's closed form
//! conjoin their small, constraining factors first. The order must not
//! change the function: these tests keep the earlier formulas as
//! references and check that the engine returns the same `NodeId`s, and
//! Step 2 the same counters, on the inputs lazy and cautious repair feed
//! them.

mod random_programs;

use ftrepair_bdd::{NodeId, FALSE};
use ftrepair_core::add_masking::{allowed_transitions, prelude, Prelude};
use ftrepair_core::step2::{candidates, partition_for, with_outside_span};
use ftrepair_core::{add_masking, cautious_repair, lazy_repair, step2};
use ftrepair_core::{RepairOptions, RepairStats, Token, WarmSeeds};
use ftrepair_program::{realizability, semantics, DistributedProgram};
use ftrepair_symbolic::{SymbolicContext, VarId};
use ftrepair_telemetry::Telemetry;
use random_programs::{build, for_random_programs};

/// The formulas as they were before the frame went first.
mod reference {
    use super::*;

    /// `(T₁ − S₁)(x) ∧ T₁(x′)` first, then `¬mt`, the universe and the
    /// frame.
    pub fn allowed_transitions(
        cx: &mut SymbolicContext,
        pre: &Prelude,
        s1: NodeId,
        t1: NodeId,
    ) -> NodeId {
        let inside_orig = semantics::project(cx, pre.delta_p, s1);
        let inside = cx.mgr().and(inside_orig, pre.not_mt);
        let outside_src = cx.mgr().diff(t1, s1);
        let span_tgt = cx.as_next(t1);
        let t_universe = cx.transition_universe();
        let mut recovery = cx.mgr().and(outside_src, span_tgt);
        recovery = cx.mgr().and(recovery, pre.not_mt);
        recovery = cx.mgr().and(recovery, t_universe);
        recovery = cx.mgr().and(recovery, pre.one_writer);
        cx.mgr().or(inside, recovery)
    }

    /// Line 5 as `(δ ∧ write_ok_j) ∧ t_universe`.
    pub fn candidates(cx: &mut SymbolicContext, unwritable: &[VarId], delta: NodeId) -> NodeId {
        let frame = realizability::write_ok(cx, unwritable);
        let cand = cx.mgr().and(delta, frame);
        let t_universe = cx.transition_universe();
        cx.mgr().and(cand, t_universe)
    }

    /// Lines 4–23 in closed form, `Δ_j − group(group(Δ_j) − Δ_j)`, with
    /// the counters it implied: picks, groups kept, groups dropped.
    pub fn partition(
        cx: &mut SymbolicContext,
        unreadable: &[VarId],
        unwritable: &[VarId],
        delta: NodeId,
    ) -> (NodeId, [u64; 3]) {
        let cand = candidates(cx, unwritable, delta);
        if cand == FALSE {
            return (FALSE, [0; 3]);
        }
        let closure = realizability::group(cx, unreadable, cand);
        let missing = cx.mgr().diff(closure, cand);
        let bad = realizability::group(cx, unreadable, missing);
        let keep = cx.mgr().diff(cand, bad);
        (keep, [1, u64::from(keep != FALSE), u64::from(bad != FALSE)])
    }
}

fn counters(stats: &RepairStats) -> [u64; 3] {
    [stats.step2_picks, stats.groups_kept, stats.groups_dropped]
}

/// The allowed relation at `(s1, t1)` is the reference's root.
fn assert_allowed(prog: &mut DistributedProgram, pre: &Prelude, s1: NodeId, t1: NodeId) -> NodeId {
    let got = allowed_transitions(&mut prog.cx, pre, s1, t1);
    let want = reference::allowed_transitions(&mut prog.cx, pre, s1, t1);
    assert_eq!(got, want, "{}: allowed relation differs", prog.name);
    got
}

/// Step 2 on Step 1's `trans` and `span`, as lazy repair runs it and as
/// cautious repair runs each group enforcement: per process, Line 5's
/// `Δ_j` and the closed form's `δ_j` are the reference's roots and the
/// counters its counts, and `step2` returns exactly those relations and
/// counts.
fn assert_step2(prog: &mut DistributedProgram, trans: NodeId, span: NodeId) {
    let name = prog.name.clone();
    let (opts, token) = (RepairOptions::default(), Token::unbounded());
    let delta = with_outside_span(&mut prog.cx, trans, span);
    let mut total = [0; 3];
    let mut relations = Vec::new();
    for j in 0..prog.processes.len() {
        let (unreadable, unwritable) = (prog.unreadable(j), prog.unwritable(j));
        let cx = &mut prog.cx;
        let cand = candidates(cx, &unwritable, delta);
        assert_eq!(cand, reference::candidates(cx, &unwritable, delta), "{name}: Δ_{j} differs");

        let (read, write) = (prog.processes[j].read.clone(), prog.processes[j].write.clone());
        let mut stats = RepairStats::default();
        let roots = [trans, span, delta];
        let cx = &mut prog.cx;
        let got =
            partition_for(cx, &read, &write, delta, &opts, &roots, &mut stats, &token).unwrap();
        let (want, want_counters) = reference::partition(cx, &unreadable, &unwritable, delta);
        assert_eq!(got, want, "{name}: δ_{j} differs");
        assert_eq!(counters(&stats), want_counters, "{name}: process {j}'s counters differ");
        for (t, c) in total.iter_mut().zip(want_counters) {
            *t += c;
        }
        relations.push(want);
    }
    let mut stats = RepairStats::default();
    let r2 = step2(prog, trans, span, &opts, &mut stats, &token).unwrap();
    let got: Vec<NodeId> = r2.processes.iter().map(|p| p.trans).collect();
    assert_eq!(got, relations, "{name}: step2's relations differ");
    assert_eq!(counters(&stats), total, "{name}: step2's counters differ");
}

/// Every identity at the points where both algorithms use it:
/// - Phases 1–3's `(S₁, T₁)`, where lazy Step 1 and cautious repair both
///   start, and cautious's first group enforcement on that allowed
///   relation;
/// - Step 1's converged `(S₁, T₁)` and Step 2 on Step 1's output, lazy's
///   first outer iteration;
/// - the final invariant and span of a full lazy and a full cautious
///   repair, and Step 2 on the allowed relation there.
fn assert_identities(prog: &mut DistributedProgram, restrict: bool) {
    let (inv, safety) = (prog.invariant, prog.safety);
    let (tele, token, seeds) = (Telemetry::off(), Token::unbounded(), WarmSeeds::none());
    let pre = prelude(prog, inv, &safety, restrict, &tele, &token, &seeds).unwrap();

    let first = assert_allowed(prog, &pre, pre.s1, pre.t1);
    assert_step2(prog, first, pre.t1);

    let r1 = add_masking(prog, inv, &safety, restrict, &tele, &token, &seeds).unwrap();
    if !r1.failed {
        let allowed = assert_allowed(prog, &pre, r1.invariant, r1.span);
        assert_eq!(allowed, r1.allowed, "{}: Step 1's own allowed relation differs", prog.name);
        assert_step2(prog, r1.trans, r1.span);
    }

    let opts = if restrict { RepairOptions::default() } else { RepairOptions::pure_lazy() };
    let lazy = lazy_repair(prog, &opts).unwrap();
    let cautious = cautious_repair(prog, &opts).unwrap();
    for out in [lazy, cautious].into_iter().filter(|o| !o.failed) {
        let allowed = assert_allowed(prog, &pre, out.invariant, out.span);
        assert_step2(prog, allowed, out.span);
    }
}

fn check(mut prog: DistributedProgram) {
    // The checks hold roots that no checkpoint is told about, so no
    // collection may run, in the repairs (which re-arm the trigger at this
    // floor) or between them.
    prog.cx.mgr().set_gc_threshold(usize::MAX);
    assert_identities(&mut prog, true);
    assert_identities(&mut prog, false);
}

#[test]
fn byzantine_agreement_keeps_its_roots() {
    for n in 2..=4 {
        check(ftrepair_casestudies::byzantine_agreement(n).0);
    }
}

#[test]
fn byzantine_failstop_keeps_its_roots() {
    for n in 2..=3 {
        check(ftrepair_casestudies::byzantine_failstop(n).0);
    }
}

#[test]
fn stabilizing_chain_keeps_its_roots() {
    // d = 3 leaves dead encodings in every cell's two bits.
    for d in [3, 8] {
        check(ftrepair_casestudies::stabilizing_chain(4, d).0);
    }
}

#[test]
fn tmr_and_token_ring_keep_their_roots() {
    check(ftrepair_casestudies::tmr(2).0);
    check(ftrepair_casestudies::token_ring(3, 3).0);
}

#[test]
fn random_programs_keep_their_roots() {
    // Size-3 domains and processes that cannot read the other variable
    // exercise `dom_U` in the closed form.
    for_random_programs(6, |rp, _| check(build(rp)));
}
