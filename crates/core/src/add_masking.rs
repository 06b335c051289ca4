//! Step 1: symbolic Add-Masking (Kulkarni & Arora) without realizability
//! constraints.
//!
//! Mirrors `ftrepair_explicit::add_masking` fixpoint-for-fixpoint; the two
//! are required to agree exactly on enumerable instances (see the
//! cross-validation tests).

use crate::cancel::{RepairAborted, Token};
use crate::warm::WarmSeeds;
use ftrepair_bdd::{NodeId, FALSE};
use ftrepair_program::{semantics, DistributedProgram, Safety};
use ftrepair_telemetry::{Json, Telemetry};

/// Memo caches above this size are cleared between fixpoint iterations —
/// they, not the node arena, dominate memory on the big chain instances.
pub(crate) const CACHE_TRIM_THRESHOLD: usize = 8_000_000;

/// Output of symbolic Add-Masking.
#[derive(Clone, Copy, Debug)]
pub struct AddMaskingResult {
    /// States from which faults alone can violate safety.
    pub ms: NodeId,
    /// Transitions the fault-tolerant program must never execute
    /// (`Sf_bt ∨ (next ∈ ms)`).
    pub mt: NodeId,
    /// The repaired invariant `S₁` (`FALSE` iff `failed`).
    pub invariant: NodeId,
    /// The fault-span `T₁`.
    pub span: NodeId,
    /// The repaired, *unconstrained* (possibly unrealizable) transition
    /// relation `δ''` — maximal recovery, cycles broken rank-wise.
    pub trans: NodeId,
    /// The maximal allowed relation `p1` before cycle breaking (useful to
    /// diagnose how much nondeterminism cycle breaking cost).
    pub allowed: NodeId,
    /// True iff no masking-tolerant program exists under these inputs.
    pub failed: bool,
}

/// Run Add-Masking on `prog` with explicit `invariant` and `safety` inputs
/// (Algorithm 1 re-invokes it with a shrunk invariant and a grown
/// bad-transition set).
///
/// `restrict_to_reachable` is the heuristic of Section V-A. `token` is
/// checked before any work and at every fixpoint iteration; an expired
/// deadline aborts before a single transition is added.
pub fn add_masking(
    prog: &mut DistributedProgram,
    invariant: NodeId,
    safety: &Safety,
    restrict_to_reachable: bool,
    token: &Token,
) -> Result<AddMaskingResult, RepairAborted> {
    add_masking_seeded(
        prog,
        invariant,
        safety,
        restrict_to_reachable,
        &Telemetry::off(),
        token,
        &WarmSeeds::none(),
    )
}

/// [`add_masking`] with telemetry and warm-start seeds.
///
/// Telemetry adds a span around the Phase 1 `ms` fixpoint (carrying its
/// iteration count as a structured field) and one span per Phase 4
/// joint-fixpoint iteration (carrying the iteration index), so a Chrome
/// trace of a repair shows exactly where a slow Step 1 spends its time.
///
/// With seeds, Phase 3's forward reachability starts from
/// `s1 ∪ (seed ∩ universe)` instead of `s1`. Any seed is sound — the span
/// stays within `universe − ms` (the non-heuristic mode's span) and Phase 4
/// shrinks it to the same fixpoint; see [`crate::warm`]. Empty seeds
/// reproduce the cold path bit-for-bit.
pub fn add_masking_seeded(
    prog: &mut DistributedProgram,
    invariant: NodeId,
    safety: &Safety,
    restrict_to_reachable: bool,
    tele: &Telemetry,
    token: &Token,
    seeds: &WarmSeeds,
) -> Result<AddMaskingResult, RepairAborted> {
    token.check()?;
    let cx = &mut prog.cx;
    let mut delta_p = FALSE;
    for p in &prog.processes {
        delta_p = cx.mgr().or(delta_p, p.trans);
    }
    let faults = prog.faults;
    let universe = cx.state_universe();
    let t_universe = cx.transition_universe();

    // Originally-terminal states stutter (Definition 18): they are exempt
    // from deadlock pruning.
    let stutters = cx.deadlocks(universe, delta_p);

    // Phase 1: ms — least fixpoint of "some fault step violates safety or
    // re-enters ms".
    let bad_fault = cx.mgr().and(faults, safety.bad_trans);
    let bad_fault_sources = cx.preimage_of_anything(bad_fault);
    let mut ms = cx.mgr().or(safety.bad_states, bad_fault_sources);
    ms = cx.mgr().and(ms, universe);
    let mut ms_span = tele.span("step1.ms_fixpoint");
    let mut ms_iters = 0u64;
    loop {
        token.check_governed(cx)?;
        ms_iters += 1;
        // Governance checkpoint: every live local is a root; the caller's
        // own roots are protected in the manager.
        cx.maybe_gc(&[
            invariant,
            safety.bad_states,
            safety.bad_trans,
            delta_p,
            universe,
            t_universe,
            stutters,
            ms,
        ]);
        let pre = cx.preimage(ms, faults);
        let next = cx.mgr().or(ms, pre);
        if next == ms {
            break;
        }
        ms = next;
    }
    ms_span.field("iters", Json::from(ms_iters));
    drop(ms_span);

    // Phase 2: mt and the safe program relation.
    let ms_next = cx.as_next(ms);
    let mut mt = cx.mgr().or(safety.bad_trans, ms_next);
    mt = cx.mgr().and(mt, t_universe);
    let not_mt = cx.mgr().not(mt);
    let safe_delta = cx.mgr().and(delta_p, not_mt);

    // Initial invariant guess.
    let mut s1 = cx.mgr().and(invariant, universe);
    s1 = cx.mgr().diff(s1, ms);
    s1 = semantics::prune_deadlocks_except(cx, s1, safe_delta, stutters);

    // Phase 3: initial fault-span guess. The reachability fixpoint is one
    // of the two places the arena peaks on the big chain instances, so it
    // checkpoints per frontier step — every local still live here rides
    // along as a root.
    let mut t1 = if restrict_to_reachable {
        let _reach_span = tele.span("step1.reachability");
        let combined = cx.mgr().or(delta_p, faults);
        // Warm start: widen the frontier with the cached neighbor's
        // invariant ∪ span, clamped to this program's universe. The fixpoint
        // from a superset start converges in O(1) frontier steps when the
        // seed already covers the reachable set, and the extra states are
        // swept out by `− ms` here and by Phase 4's shrinking fixpoint —
        // the seeded span never exceeds the non-heuristic `universe − ms`.
        let mut start = s1;
        if !seeds.is_empty() {
            tele.add("repair.warm_seeded_reachability", 1);
            let mut seed = FALSE;
            for s in [seeds.invariant, seeds.span].into_iter().flatten() {
                seed = cx.mgr().or(seed, s);
            }
            seed = cx.mgr().and(seed, universe);
            start = cx.mgr().or(start, seed);
        }
        let keep = [
            invariant,
            safety.bad_states,
            safety.bad_trans,
            delta_p,
            universe,
            t_universe,
            stutters,
            ms,
            mt,
            not_mt,
            safe_delta,
            s1,
            start,
        ];
        let reach = cx.forward_reachable_keep(start, combined, &keep);
        cx.mgr().diff(reach, ms)
    } else {
        cx.mgr().diff(universe, ms)
    };

    // Recovery candidates must be executable by *some* process, i.e.
    // change only variables inside one process's write set — anything else
    // is unconditionally deleted by Step 2's write filter, so offering it
    // as recovery would only bloat the relation and postpone failures to
    // the outer loop. (This is also how the per-process cautious tool
    // builds recovery.)
    let one_writer = {
        let frames: Vec<Vec<ftrepair_symbolic::VarId>> =
            (0..prog.processes.len()).map(|j| prog.unwritable(j)).collect();
        let cx = &mut prog.cx;
        let mut acc = FALSE;
        for unwritable in frames {
            let frame = cx.unchanged_all(&unwritable);
            acc = cx.mgr().or(acc, frame);
        }
        acc
    };

    // Phase 4: joint fixpoint on (S₁, T₁).
    let mut p1;
    let mut fixpoint_iter = 0u64;
    loop {
        // Offer (S₁, T₁, ms) before the abort check: if the token is about
        // to fire, the forced write preserves exactly the state the abort
        // would discard — the resume point for checkpoint-and-exit drains.
        token.offer_checkpoint(&prog.cx, s1, t1, ms);
        token.check_governed(&prog.cx)?;
        fixpoint_iter += 1;
        let mut fixpoint_span = tele.span("step1.fixpoint");
        fixpoint_span.field("iter", Json::from(fixpoint_iter));
        let (old_s1, old_t1) = (s1, t1);
        prog.cx.maybe_trim_caches(CACHE_TRIM_THRESHOLD);
        prog.cx.maybe_gc(&[
            invariant,
            safety.bad_states,
            safety.bad_trans,
            delta_p,
            stutters,
            ms,
            mt,
            not_mt,
            safe_delta,
            s1,
            t1,
            one_writer,
        ]);

        p1 = allowed_transitions(prog, delta_p, not_mt, one_writer, s1, t1);
        let cx = &mut prog.cx;
        let live = [
            invariant,
            safety.bad_states,
            safety.bad_trans,
            delta_p,
            stutters,
            ms,
            mt,
            not_mt,
            safe_delta,
            s1,
            t1,
            one_writer,
            p1,
        ];

        // (a) span states must be able to recover to S₁ via p1 — the other
        // arena peak; checkpoints per frontier step like Phase 3.
        let can_reach = cx.backward_reachable_keep(s1, p1, &live);
        t1 = cx.mgr().and(t1, can_reach);

        // (b) fault closure: faults must never exit the span.
        loop {
            token.offer_checkpoint(cx, s1, t1, ms);
            token.check_governed(cx)?;
            let mut roots = live.to_vec();
            roots.push(t1);
            cx.maybe_gc(&roots);
            let not_t1 = cx.mgr().not(t1);
            let escaping = cx.preimage(not_t1, faults);
            let keep = cx.mgr().diff(t1, escaping);
            if keep == t1 {
                break;
            }
            t1 = keep;
        }

        // (c) invariant inside span, (d) deadlock-pruned.
        s1 = cx.mgr().and(s1, t1);
        s1 = semantics::prune_deadlocks_except(cx, s1, safe_delta, stutters);

        if s1 == FALSE {
            return Ok(AddMaskingResult {
                ms,
                mt,
                invariant: FALSE,
                span: FALSE,
                trans: FALSE,
                allowed: FALSE,
                failed: true,
            });
        }
        if s1 == old_s1 && t1 == old_t1 {
            break;
        }
    }
    token.check_governed(&prog.cx)?;
    let cx = &mut prog.cx;

    // Phase 5: break recovery cycles (see `crate::ranking`): peel the
    // original program's acyclic recovery structure first so its groups
    // survive Step 2, admit shortcuts consistent with the peeling order,
    // and fall back to BFS jump layers for everything else.
    let trans = crate::ranking::break_cycles(cx, p1, safe_delta, s1, t1);

    Ok(AddMaskingResult { ms, mt, invariant: s1, span: t1, trans, allowed: p1, failed: false })
}

/// The "all possible available transitions" relation: original transitions
/// within the invariant, plus any recovery transition from `T₁ − S₁` back
/// into `T₁` — minus `mt` (already folded into `not_mt` and `safe` parts).
fn allowed_transitions(
    prog: &mut DistributedProgram,
    delta_p: NodeId,
    not_mt: NodeId,
    one_writer: NodeId,
    s1: NodeId,
    t1: NodeId,
) -> NodeId {
    let cx = &mut prog.cx;
    let inside_orig = semantics::project(cx, delta_p, s1);
    let inside = cx.mgr().and(inside_orig, not_mt);
    let outside_src = cx.mgr().diff(t1, s1);
    let span_tgt = cx.as_next(t1);
    let t_universe = cx.transition_universe();
    let mut recovery = cx.mgr().and(outside_src, span_tgt);
    recovery = cx.mgr().and(recovery, not_mt);
    recovery = cx.mgr().and(recovery, t_universe);
    recovery = cx.mgr().and(recovery, one_writer);
    cx.mgr().or(inside, recovery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftrepair_program::{verify::verify_masking, ProgramBuilder, Update};

    fn needs_recovery() -> DistributedProgram {
        let mut b = ProgramBuilder::new("needs-recovery");
        let x = b.var("x", 3);
        b.process("p", &[x], &[x]);
        let g0 = b.cx().assign_eq(x, 0);
        b.action(g0, &[(x, Update::Const(1))]);
        let g1 = b.cx().assign_eq(x, 1);
        b.action(g1, &[(x, Update::Const(0))]);
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

    #[test]
    fn synthesized_recovery_verifies() {
        let mut p = needs_recovery();
        let (inv, safety) = (p.invariant, p.safety);
        let r = add_masking(&mut p, inv, &safety, true, &Token::unbounded()).unwrap();
        assert!(!r.failed);
        assert_eq!(p.cx.count_states(r.invariant), 2.0);
        assert_eq!(p.cx.count_states(r.span), 3.0);
        let orig = p.program_trans();
        let faults = p.faults;
        let report = verify_masking(&mut p.cx, orig, inv, r.trans, r.invariant, faults, &safety);
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn ms_and_mt_shapes() {
        // Faults 1→2→3 with 3 bad: ms = {1,2,3}; mt = all transitions into
        // ms.
        let mut b = ProgramBuilder::new("chain");
        let x = b.var("x", 4);
        b.process("p", &[x], &[x]);
        let g0 = b.cx().assign_eq(x, 0);
        b.action(g0, &[(x, Update::Const(0))]);
        let inv = b.cx().assign_eq(x, 0);
        b.invariant(inv);
        let f1 = b.cx().assign_eq(x, 1);
        b.fault_action(f1, &[(x, Update::Const(2))]);
        let f2 = b.cx().assign_eq(x, 2);
        b.fault_action(f2, &[(x, Update::Const(3))]);
        let bad = b.cx().assign_eq(x, 3);
        b.bad_states(bad);
        let mut p = b.build();
        let (inv, safety) = (p.invariant, p.safety);
        let r = add_masking(&mut p, inv, &safety, true, &Token::unbounded()).unwrap();
        assert_eq!(p.cx.count_states(r.ms), 3.0);
        // mt = 4 sources × 3 targets (into ms).
        assert_eq!(p.cx.count_transitions(r.mt), 12.0);
        assert!(!r.failed);
    }

    #[test]
    fn hopeless_input_fails() {
        let mut b = ProgramBuilder::new("hopeless");
        let x = b.var("x", 2);
        b.process("p", &[x], &[x]);
        let g = b.cx().assign_eq(x, 0);
        b.action(g, &[(x, Update::Const(0))]);
        let inv = b.cx().assign_eq(x, 0);
        b.invariant(inv);
        let fg = b.cx().assign_eq(x, 0);
        b.fault_action(fg, &[(x, Update::Const(1))]);
        let bad = b.cx().assign_eq(x, 1);
        b.bad_states(bad);
        let mut p = b.build();
        let (inv, safety) = (p.invariant, p.safety);
        let r = add_masking(&mut p, inv, &safety, true, &Token::unbounded()).unwrap();
        assert!(r.failed);
        assert_eq!(r.invariant, FALSE);
    }

    #[test]
    fn heuristic_changes_span_not_soundness() {
        // With an unreachable state, both modes verify; the heuristic span
        // is strictly smaller.
        let mut b = ProgramBuilder::new("unreachable");
        let x = b.var("x", 4);
        b.process("p", &[x], &[x]);
        let g0 = b.cx().assign_eq(x, 0);
        b.action(g0, &[(x, Update::Const(1))]);
        let g1 = b.cx().assign_eq(x, 1);
        b.action(g1, &[(x, Update::Const(0))]);
        let inv = {
            let a = b.cx().assign_eq(x, 0);
            let c = b.cx().assign_eq(x, 1);
            b.cx().mgr().or(a, c)
        };
        b.invariant(inv);
        let fg = b.cx().assign_eq(x, 1);
        b.fault_action(fg, &[(x, Update::Const(2))]);
        let mut p = b.build();
        let (inv, safety) = (p.invariant, p.safety);
        let with = add_masking(&mut p, inv, &safety, true, &Token::unbounded()).unwrap();
        let without = add_masking(&mut p, inv, &safety, false, &Token::unbounded()).unwrap();
        assert!(!with.failed && !without.failed);
        assert_eq!(p.cx.count_states(with.span), 3.0);
        assert_eq!(p.cx.count_states(without.span), 4.0);
        assert!(p.cx.mgr().leq(with.span, without.span));
        for r in [with, without] {
            let orig = p.program_trans();
            let faults = p.faults;
            let report =
                verify_masking(&mut p.cx, orig, inv, r.trans, r.invariant, faults, &safety);
            assert!(report.ok(), "{report:?}");
        }
    }

    #[test]
    fn terminal_states_survive_via_stutter_exemption() {
        // Program: 0→1, 1 terminal; invariant {0,1}; fault 1→2; recovery
        // needed from 2. Without the stutter exemption, state 1 (and then
        // everything) would unwind.
        let mut b = ProgramBuilder::new("terminal");
        let x = b.var("x", 3);
        b.process("p", &[x], &[x]);
        let g0 = b.cx().assign_eq(x, 0);
        b.action(g0, &[(x, Update::Const(1))]);
        let inv = {
            let a = b.cx().assign_eq(x, 0);
            let c = b.cx().assign_eq(x, 1);
            b.cx().mgr().or(a, c)
        };
        b.invariant(inv);
        let fg = b.cx().assign_eq(x, 1);
        b.fault_action(fg, &[(x, Update::Const(2))]);
        let mut p = b.build();
        let (inv, safety) = (p.invariant, p.safety);
        let r = add_masking(&mut p, inv, &safety, true, &Token::unbounded()).unwrap();
        assert!(!r.failed);
        assert_eq!(p.cx.count_states(r.invariant), 2.0, "terminal state must survive");
        // Recovery from 2 exists.
        let s2 = {
            let x = p.cx.find_var("x").unwrap();
            p.cx.assign_eq(x, 2)
        };
        let from2 = p.cx.mgr().and(r.trans, s2);
        assert!(from2 != FALSE);
    }

    #[test]
    fn cycle_breaking_leaves_no_loops_outside_invariant() {
        let mut p = needs_recovery();
        let (inv, safety) = (p.invariant, p.safety);
        let r = add_masking(&mut p, inv, &safety, false, &Token::unbounded()).unwrap();
        let outside = p.cx.mgr().diff(r.span, r.invariant);
        let outside_trans = semantics::project(&mut p.cx, r.trans, outside);
        // Greatest fixpoint of states with successors staying outside: ∅.
        let mut avoid = outside;
        loop {
            let within = semantics::project(&mut p.cx, outside_trans, avoid);
            let alive = p.cx.preimage_of_anything(within);
            let next = p.cx.mgr().and(avoid, alive);
            if next == avoid {
                break;
            }
            avoid = next;
        }
        assert_eq!(avoid, FALSE);
    }

    #[test]
    fn allowed_relation_is_superset_of_final() {
        let mut p = needs_recovery();
        let (inv, safety) = (p.invariant, p.safety);
        let r = add_masking(&mut p, inv, &safety, true, &Token::unbounded()).unwrap();
        assert!(p.cx.mgr().leq(r.trans, r.allowed));
    }

    #[test]
    fn expired_deadline_aborts_before_any_work() {
        let mut p = needs_recovery();
        let (inv, safety) = (p.invariant, p.safety);
        let expired = Token::deadline_in(std::time::Duration::ZERO);
        let r = add_masking(&mut p, inv, &safety, true, &expired);
        assert_eq!(r.unwrap_err(), RepairAborted::Timeout);
    }
}
