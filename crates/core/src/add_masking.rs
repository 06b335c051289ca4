//! Step 1: symbolic Add-Masking (Kulkarni & Arora) without realizability
//! constraints.
//!
//! Mirrors `ftrepair_explicit::add_masking` fixpoint-for-fixpoint; the two
//! are required to agree exactly on enumerable instances (see the
//! cross-validation tests). The cautious baseline runs the same Phases 1–3
//! (`prelude`) and the same allowed relation (`allowed_transitions`), and
//! replaces only the joint fixpoint and cycle breaking.

use crate::cancel::{RepairAborted, Token};
use crate::warm::WarmSeeds;
use ftrepair_bdd::{NodeId, FALSE};
use ftrepair_program::{semantics, DistributedProgram, Safety};
use ftrepair_symbolic::SymbolicContext;
use ftrepair_telemetry::{Json, Telemetry};

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

/// Add-Masking's Phases 1–3: what both Step 1 and the cautious baseline
/// compute before their joint invariant/fault-span fixpoints.
pub struct Prelude {
    /// `δ_P`, the union of the processes' relations.
    pub delta_p: NodeId,
    /// Originally-terminal states, exempt from deadlock pruning.
    pub stutters: NodeId,
    /// States from which faults alone can violate safety.
    pub ms: NodeId,
    /// Transitions the repaired program must never execute.
    pub mt: NodeId,
    /// `¬mt`.
    pub not_mt: NodeId,
    /// `δ_P ∧ ¬mt`.
    pub safe_delta: NodeId,
    /// The union of the write frames: the transitions a single process
    /// could take under the write restriction.
    pub one_writer: NodeId,
    /// The initial invariant guess `S₁`.
    pub s1: NodeId,
    /// The initial fault-span guess `T₁`.
    pub t1: NodeId,
}

impl Prelude {
    /// The values every later checkpoint must keep, besides the caller's
    /// inputs and its evolving `(S₁, T₁)`.
    pub fn roots(&self) -> [NodeId; 7] {
        [
            self.delta_p,
            self.stutters,
            self.ms,
            self.mt,
            self.not_mt,
            self.safe_delta,
            self.one_writer,
        ]
    }
}

/// Phases 1–3 of Add-Masking on `prog` with `invariant` and `safety` as
/// inputs: `ms`, `mt` and the safe relation, the initial invariant, and
/// the initial fault-span (chained reachability from the invariant, or
/// from it and `seeds`, with `restrict_to_reachable`; everything outside
/// `ms` without). Checks `token` on entry and at every fixpoint iteration.
///
/// Telemetry wraps the three phases in a `step1.prelude` span, with the
/// `step1.ms_fixpoint` and `step1.reachability` spans nested inside it.
pub fn prelude(
    prog: &mut DistributedProgram,
    invariant: NodeId,
    safety: &Safety,
    restrict_to_reachable: bool,
    tele: &Telemetry,
    token: &Token,
    seeds: &WarmSeeds,
) -> Result<Prelude, RepairAborted> {
    token.check()?;
    let _prelude_span = tele.span("step1.prelude");
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

    // Phase 3: initial fault-span guess — reachability under δ_P ∪ f,
    // chained over the writer parts (one write set's share of δ_P ∪ f at a
    // time, then the steps no single writer covers). It checkpoints before
    // every image, with every local still live here as a root; the frames
    // stay rooted because `one_writer` reuses them after the fixpoint.
    let frames = prog.write_frames();
    let cx = &mut prog.cx;
    let t1 = if restrict_to_reachable {
        let mut reach_span = tele.span("step1.reachability");
        let combined = cx.mgr().or(delta_p, faults);
        let parts = cx.split_by_frames(combined, &frames);
        // Warm start: widen the frontier with the cached neighbor's
        // invariant ∪ span, clamped to this program's universe. The fixpoint
        // from a superset start converges in O(1) sweeps when the seed
        // already covers the reachable set, and the extra states are
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
        let mut keep = vec![
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
        keep.extend(&frames);
        let (reach, sweeps) = cx.forward_reachable_keep(start, &parts, &keep);
        reach_span.field("parts", Json::from(parts.len() as u64));
        reach_span.field("sweeps", Json::from(sweeps as u64));
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
    let one_writer = frames.iter().fold(FALSE, |acc, &frame| cx.mgr().or(acc, frame));

    Ok(Prelude { delta_p, stutters, ms, mt, not_mt, safe_delta, one_writer, s1, t1 })
}

/// Run Add-Masking on `prog` with explicit `invariant` and `safety` inputs
/// (Algorithm 1 re-invokes it with a shrunk invariant and a grown
/// bad-transition set).
///
/// `restrict_to_reachable` is the heuristic of Section V-A. `token` is
/// checked before any work and at every fixpoint iteration; an expired
/// deadline aborts before a single transition is added.
///
/// Telemetry adds a span around the Phase 1 `ms` fixpoint (carrying its
/// iteration count as a structured field), one around Phase 3's chained
/// reachability (carrying its part and sweep counts), one per Phase 4
/// joint-fixpoint iteration (carrying the iteration index) and one around
/// Phase 5's cycle breaking, so a Chrome trace of a repair shows exactly
/// where a slow Step 1 spends its time.
///
/// With seeds, Phase 3's forward reachability starts from
/// `s1 ∪ (seed ∩ universe)` instead of `s1`. Any seed is sound — the span
/// stays within `universe − ms` (the non-heuristic mode's span) and Phase 4
/// shrinks it to the same fixpoint; see [`crate::warm`].
/// [`WarmSeeds::none`] reproduces the cold path bit-for-bit.
pub fn add_masking(
    prog: &mut DistributedProgram,
    invariant: NodeId,
    safety: &Safety,
    restrict_to_reachable: bool,
    tele: &Telemetry,
    token: &Token,
    seeds: &WarmSeeds,
) -> Result<AddMaskingResult, RepairAborted> {
    let pre = prelude(prog, invariant, safety, restrict_to_reachable, tele, token, seeds)?;
    let (ms, mt) = (pre.ms, pre.mt);
    let (mut s1, mut t1) = (pre.s1, pre.t1);
    // Every checkpoint below keeps the inputs and Phases 1–3's values.
    let mut base = vec![invariant, safety.bad_states, safety.bad_trans];
    base.extend(pre.roots());

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
        let mut live = base.clone();
        live.extend([s1, t1]);
        prog.cx.maybe_gc(&live);

        let cx = &mut prog.cx;
        p1 = allowed_transitions(cx, &pre, s1, t1);
        live.push(p1);

        // (a) span states must be able to recover to S₁ via p1 — the other
        // arena peak; checkpoints per frontier step like Phase 3.
        let can_reach = cx.backward_reachable_keep(s1, p1, &live);
        t1 = cx.mgr().and(t1, can_reach);

        // (b) fault closure: faults must never exit the span.
        loop {
            token.offer_checkpoint(cx, s1, t1, ms);
            token.check_governed(cx)?;
            let mut roots = live.clone();
            roots.push(t1);
            cx.maybe_gc(&roots);
            let not_t1 = cx.mgr().not(t1);
            let escaping = cx.preimage(not_t1, prog.faults);
            let keep = cx.mgr().diff(t1, escaping);
            if keep == t1 {
                break;
            }
            t1 = keep;
        }

        // (c) invariant inside span, (d) deadlock-pruned.
        s1 = cx.mgr().and(s1, t1);
        s1 = semantics::prune_deadlocks_except(cx, s1, pre.safe_delta, pre.stutters);

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
    // and fall back to BFS jump layers for everything else, then keep the
    // steps that lower the layer rank in one product. Its rounds and the
    // product poll the token and enforce the node budget with the layers
    // (and the inputs) live. (S₁, T₁, ms) has converged, so an abort there
    // leaves it as the resume point, the state the caller would have
    // offered after Step 1.
    let trans = {
        let mut ranking_span = tele.span("step1.ranking");
        let roots = [invariant, safety.bad_states, safety.bad_trans, ms, mt];
        let ranked = crate::ranking::break_cycles(cx, token, &roots, p1, pre.safe_delta, s1, t1)
            .inspect_err(|_| token.offer_checkpoint(cx, s1, t1, ms))?;
        if ranking_span.id().is_some() {
            ranking_span.field("rounds", Json::from(ranked.rounds as u64));
            ranking_span.field("rank_nodes", Json::from(ranked.rank_nodes as u64));
            ranking_span.field("descent_states", Json::from(ranked.descent_states as u64));
        }
        ranked.trans
    };

    Ok(AddMaskingResult { ms, mt, invariant: s1, span: t1, trans, allowed: p1, failed: false })
}

/// The "all possible available transitions" relation: original transitions
/// within the invariant, plus any single-writer recovery transition from
/// `T₁ − S₁` back into `T₁` — minus `mt`.
///
/// The recovery part conjoins the frame first: each frame in `one_writer`
/// ties every variable one process cannot write, so `one_writer ∧ T₁(x′)`
/// is about the size of the result. Starting from `(T₁ − S₁)(x) ∧ T₁(x′)`
/// instead builds a state × state product many times that size (DESIGN.md
/// §6 item 2) for the frame to cut down. The order does not change the
/// function, so the root is the same either way.
pub fn allowed_transitions(
    cx: &mut SymbolicContext,
    pre: &Prelude,
    s1: NodeId,
    t1: NodeId,
) -> NodeId {
    let inside_orig = semantics::project(cx, pre.delta_p, s1);
    let inside = cx.mgr().and(inside_orig, pre.not_mt);
    let span_tgt = cx.as_next(t1);
    let mut recovery = cx.mgr().and(pre.one_writer, span_tgt);
    let outside_src = cx.mgr().diff(t1, s1);
    recovery = cx.mgr().and(recovery, outside_src);
    let t_universe = cx.transition_universe();
    recovery = cx.mgr().and(recovery, t_universe);
    recovery = cx.mgr().and(recovery, pre.not_mt);
    cx.mgr().or(inside, recovery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftrepair_program::{verify::verify_masking, ProgramBuilder, Update};

    /// Cold, untraced Add-Masking.
    fn run(
        p: &mut DistributedProgram,
        invariant: NodeId,
        safety: &Safety,
        restrict_to_reachable: bool,
        token: &Token,
    ) -> Result<AddMaskingResult, RepairAborted> {
        add_masking(
            p,
            invariant,
            safety,
            restrict_to_reachable,
            &Telemetry::off(),
            token,
            &WarmSeeds::none(),
        )
    }

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
        let r = run(&mut p, inv, &safety, true, &Token::unbounded()).unwrap();
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
        let r = run(&mut p, inv, &safety, true, &Token::unbounded()).unwrap();
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
        let r = run(&mut p, inv, &safety, true, &Token::unbounded()).unwrap();
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
        let with = run(&mut p, inv, &safety, true, &Token::unbounded()).unwrap();
        let without = run(&mut p, inv, &safety, false, &Token::unbounded()).unwrap();
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
        let r = run(&mut p, inv, &safety, true, &Token::unbounded()).unwrap();
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
        let r = run(&mut p, inv, &safety, false, &Token::unbounded()).unwrap();
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
        let r = run(&mut p, inv, &safety, true, &Token::unbounded()).unwrap();
        assert!(p.cx.mgr().leq(r.trans, r.allowed));
    }

    #[test]
    fn expired_deadline_aborts_before_any_work() {
        let mut p = needs_recovery();
        let (inv, safety) = (p.invariant, p.safety);
        let expired = Token::deadline_in(std::time::Duration::ZERO);
        let r = run(&mut p, inv, &safety, true, &expired);
        assert_eq!(r.unwrap_err(), RepairAborted::Timeout);
    }
}
