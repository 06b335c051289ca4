//! The cautious-repair baseline (Section IV): the fixpoint structure of
//! Add-Masking, but with the realizability constraints enforced in **every**
//! iteration.
//!
//! Where lazy repair runs the cheap unconstrained fixpoints to completion
//! and pays for read-restriction *groups* exactly once at the end, cautious
//! repair re-derives group-closed per-process relations inside each
//! iteration of the invariant/fault-span fixpoint, and again every time
//! cycle breaking removes a transition (removing one member means removing
//! the whole group, which can strand states, which shrinks the span, which
//! restarts the fixpoint…). The model being repaired is realizable at every
//! step — that is the property the paper's reference \[2\] maintains — and
//! the price is exactly the per-iteration group work this module does.
//! Everything else is Step 1's own: Phases 1–3 (`ms`, `mt`, the initial
//! invariant and fault-span) and each iteration's allowed relation come
//! from [`mod@crate::add_masking`], so the two algorithms differ only in where
//! the group work happens.

use crate::add_masking::{allowed_transitions, prelude};
use crate::cancel::{RepairAborted, Token};
use crate::lazy::LazyOutcome;
use crate::options::{RepairOptions, MAX_OUTER_ITERATIONS};
use crate::stats::RepairStats;
use crate::step2::{partition_for, with_outside_span};
use crate::warm::WarmSeeds;
use ftrepair_bdd::{NodeId, FALSE};
use ftrepair_program::{semantics, DistributedProgram, Process};
use ftrepair_telemetry::Telemetry;
use std::time::Instant;

/// Run cautious repair on `prog`, unbounded. The outcome has the same
/// shape as lazy repair's; `failed` means the heuristics could not produce
/// a repair, and all time is recorded in `stats.step1_time` (cautious has
/// no separate Step 2).
pub fn cautious_repair(
    prog: &mut DistributedProgram,
    opts: &RepairOptions,
) -> Result<LazyOutcome, RepairAborted> {
    cautious_repair_traced(prog, opts, &Telemetry::off())
}

/// [`cautious_repair`] with telemetry: a span around each iteration's
/// group-enforcement pass (the cost this baseline exists to expose),
/// per-iteration BDD-size samples, and the same counts as the lazy
/// pipeline.
pub fn cautious_repair_traced(
    prog: &mut DistributedProgram,
    opts: &RepairOptions,
    tele: &Telemetry,
) -> Result<LazyOutcome, RepairAborted> {
    cautious_repair_cancellable(prog, opts, tele, &Token::unbounded())
}

/// [`cautious_repair_traced`] under a [`Token`]'s limits (cancel flag,
/// deadline, node budget), checked on entry and at every iteration of the
/// main fixpoint, the inner fault-closure fixpoint, and each
/// group-enforcement pick loop.
pub fn cautious_repair_cancellable(
    prog: &mut DistributedProgram,
    opts: &RepairOptions,
    tele: &Telemetry,
    token: &Token,
) -> Result<LazyOutcome, RepairAborted> {
    let mut stats = RepairStats::default();
    let r = cautious_repair_inner(prog, opts, tele, token, &mut stats);
    crate::arena::finish(prog, tele, &stats, r)
}

fn cautious_repair_inner(
    prog: &mut DistributedProgram,
    opts: &RepairOptions,
    tele: &Telemetry,
    token: &Token,
    stats: &mut RepairStats,
) -> Result<LazyOutcome, RepairAborted> {
    token.check()?;
    crate::arena::configure(prog, token);
    let started = Instant::now();

    // Step 1's Phases 1–3: ms and mt (faults are not subject to grouping)
    // and the initial (S₁, T₁).
    let (invariant, safety) = (prog.invariant, prog.safety);
    let restrict = opts.restrict_to_reachable;
    let pre = prelude(prog, invariant, &safety, restrict, tele, token, &WarmSeeds::none())?;
    let (mut s1, mut t1) = (pre.s1, pre.t1);

    // Transitions permanently outlawed by cycle breaking (grows only).
    let mut banned = FALSE;
    let mut grouped: Vec<NodeId> = vec![FALSE; prog.processes.len()];
    let mut p1;

    // One observation per iteration's group-enforcement pass — the cost
    // this baseline exists to expose, now as a distribution.
    let h_group = tele.histogram("cautious.group_enforcement.seconds");

    loop {
        token.check_governed(&prog.cx)?;
        // Previous-iteration `p1`/`grouped` values are dead here (both are
        // fully rebuilt before their next use), so only the long-lived
        // locals are roots. They stay unchanged until the iteration ends.
        let mut live = pre.roots().to_vec();
        live.extend([banned, s1, t1]);
        prog.cx.maybe_gc(&live);
        stats.outer_iterations += 1;
        let iterations = stats.outer_iterations;
        if iterations > MAX_OUTER_ITERATIONS * 8 {
            stats.step1_time = started.elapsed();
            return Ok(LazyOutcome::failed(stats));
        }

        // Step 1's allowed relation for the current (S₁, T₁) estimate, less
        // what cycle breaking has outlawed.
        let p1_raw = {
            let cx = &mut prog.cx;
            let allowed = allowed_transitions(cx, &pre, s1, t1);
            let not_banned = cx.mgr().not(banned);
            cx.mgr().and(allowed, not_banned)
        };

        // THE CAUTIOUS COST: re-derive group-closed per-process relations
        // for this iteration's estimate.
        let group_started = Instant::now();
        {
            let mut group_span = tele.span("cautious.group_enforcement");
            group_span.field("iter", ftrepair_telemetry::Json::from(iterations as u64));
            let with_free = with_outside_span(&mut prog.cx, p1_raw, t1);
            p1 = FALSE;
            for j in 0..grouped.len() {
                let read = prog.processes[j].read.clone();
                let write = prog.processes[j].write.clone();
                // Checkpoint roots: the loop's long-lived locals plus this
                // iteration's fresh partitions (earlier `grouped` slots).
                let mut keep = live.clone();
                keep.extend([with_free, p1]);
                keep.extend(grouped.iter().take(j).copied());
                let dj = partition_for(
                    &mut prog.cx,
                    &read,
                    &write,
                    with_free,
                    opts,
                    &keep,
                    stats,
                    token,
                )?;
                grouped[j] = dj;
                p1 = prog.cx.mgr().or(p1, dj);
            }
        }
        h_group.observe_duration(group_started.elapsed());

        // Fixpoint updates against the *grouped* relation, from T₁ only.
        // Every step of `p1` that starts in T₁ is an allowed step into T₁,
        // so a path from T₁ to S₁ never leaves T₁; Line 1's free steps
        // from outside T₁ can jump anywhere but never change
        // `T₁ ∧ can_reach`. Lazy's Phase 4 searches the allowed relation
        // alone for the same reason.
        let cx = &mut prog.cx;
        let from_span = cx.mgr().and(p1, t1);
        let can_reach = cx.backward_reachable(s1, from_span);
        let mut t1_new = cx.mgr().and(t1, can_reach);
        loop {
            token.check_governed(cx)?;
            let not_t1 = cx.mgr().not(t1_new);
            let escaping = cx.preimage(not_t1, prog.faults);
            let keep = cx.mgr().diff(t1_new, escaping);
            if keep == t1_new {
                break;
            }
            t1_new = keep;
        }
        let mut s1_new = cx.mgr().and(s1, t1_new);
        // Group enforcement may leave invariant states with no actions; by
        // default those are legal termination points (stuttering), matching
        // lazy repair's policy. With the strict policy they are pruned.
        if !opts.allow_new_terminal_inside {
            let interior = semantics::project(cx, p1, s1_new);
            s1_new = semantics::prune_deadlocks_except(cx, s1_new, interior, pre.stutters);
        }
        if s1_new == FALSE {
            stats.step1_time = started.elapsed();
            return Ok(LazyOutcome::failed(stats));
        }

        crate::arena::sample_shape(tele, prog, iterations, s1_new, t1_new, None);

        // Cycle breaking, group-consciously: compute the acyclic layered
        // subrelation (same peeling as lazy's Phase 5 — original recovery
        // first, then shortcuts, then jump layers) and outlaw everything
        // else; the next group enforcement drops the offenders' groups.
        let cx = &mut prog.cx;
        let outside = cx.mgr().diff(t1_new, s1_new);
        let mut roots = live;
        roots.push(outside);
        roots.extend(&grouped);
        let kept =
            crate::ranking::break_cycles(cx, token, &roots, p1, pre.safe_delta, s1_new, t1_new)?
                .trans;
        let recovery_part = cx.mgr().and(p1, outside);
        let nondecreasing = cx.mgr().diff(recovery_part, kept);

        if nondecreasing != FALSE {
            banned = cx.mgr().or(banned, nondecreasing);
            s1 = s1_new;
            t1 = t1_new;
            continue;
        }

        if s1_new == s1 && t1_new == t1 {
            break;
        }
        s1 = s1_new;
        t1 = t1_new;
    }

    stats.step1_time = started.elapsed();
    let processes: Vec<Process> = prog
        .processes
        .iter()
        .zip(&grouped)
        .map(|(p, &trans)| Process {
            name: p.name.clone(),
            read: p.read.clone(),
            write: p.write.clone(),
            trans,
        })
        .collect();
    let stats = stats.clone();
    Ok(LazyOutcome { processes, invariant: s1, span: t1, trans: p1, failed: false, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lazy::lazy_repair;
    use crate::verify::verify_outcome;
    use ftrepair_program::{ProgramBuilder, Update};

    fn partial_view() -> DistributedProgram {
        let mut b = ProgramBuilder::new("partialview");
        let x = b.var("x", 3);
        let y = b.var("y", 2);
        b.process("a", &[x], &[x]);
        let g0 = b.cx().assign_eq(x, 0);
        b.action(g0, &[(x, Update::Const(1))]);
        let g1 = b.cx().assign_eq(x, 1);
        b.action(g1, &[(x, Update::Const(0))]);
        b.process("b", &[y], &[y]);
        let h0 = b.cx().assign_eq(y, 0);
        b.action(h0, &[(y, Update::Const(1))]);
        let h1 = b.cx().assign_eq(y, 1);
        b.action(h1, &[(y, Update::Const(0))]);
        let inv = {
            let a0 = b.cx().assign_eq(x, 0);
            let a1 = b.cx().assign_eq(x, 1);
            b.cx().mgr().or(a0, a1)
        };
        b.invariant(inv);
        let fg = b.cx().assign_eq(x, 1);
        b.fault_action(fg, &[(x, Update::Const(2))]);
        b.build()
    }

    #[test]
    fn cautious_repairs_and_verifies() {
        let mut p = partial_view();
        let out = cautious_repair(&mut p, &RepairOptions::default()).unwrap();
        assert!(!out.failed);
        let (m, r) = verify_outcome(&mut p, &out);
        assert!(m.ok(), "{m:?}");
        assert!(r.ok(), "{r:?}");
    }

    #[test]
    fn cautious_and_lazy_agree_on_invariant() {
        let mut p = partial_view();
        let c = cautious_repair(&mut p, &RepairOptions::default()).unwrap();
        let l = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
        assert!(!c.failed && !l.failed);
        assert_eq!(c.invariant, l.invariant);
    }

    #[test]
    fn cautious_does_group_work_every_iteration() {
        let mut p = partial_view();
        let c = cautious_repair(&mut p, &RepairOptions::default()).unwrap();
        let l = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
        // Cautious pays the pick loop at least as often as lazy.
        assert!(c.stats.step2_picks >= l.stats.step2_picks);
    }

    #[test]
    fn cautious_fails_on_hopeless_input() {
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
        let out = cautious_repair(&mut p, &RepairOptions::default()).unwrap();
        assert!(out.failed);
    }

    #[test]
    fn expired_deadline_aborts_before_any_transition_is_added() {
        let mut p = partial_view();
        let tele = ftrepair_telemetry::Telemetry::new();
        let token = Token::deadline_in(std::time::Duration::ZERO);
        let r = cautious_repair_cancellable(&mut p, &RepairOptions::default(), &tele, &token);
        assert_eq!(r.unwrap_err(), RepairAborted::Timeout);
        let snap = tele.snapshot();
        assert_eq!(snap.counter("repair.outer_iterations"), 0, "aborted before iteration 1");
        assert_eq!(snap.counter("step2.picks"), 0);
    }
}
