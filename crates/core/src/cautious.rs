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

use crate::cancel::{RepairAborted, Token};
use crate::lazy::LazyOutcome;
use crate::options::RepairOptions;
use crate::stats::RepairStats;
use crate::step2::{partition_for, with_outside_span};
use ftrepair_bdd::{NodeId, FALSE};
use ftrepair_program::{semantics, DistributedProgram, Process};
use ftrepair_telemetry::Telemetry;
use std::time::Instant;

/// Run cautious repair on `prog`. Returns `Err(RepairAborted)` once
/// [`RepairOptions::deadline`] (if set) expires. The outcome has the same
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
/// per-iteration BDD-size samples, and the same mirrored counters as the
/// lazy pipeline.
pub fn cautious_repair_traced(
    prog: &mut DistributedProgram,
    opts: &RepairOptions,
    tele: &Telemetry,
) -> Result<LazyOutcome, RepairAborted> {
    cautious_repair_cancellable(prog, opts, tele, &Token::from_options(opts))
}

/// [`cautious_repair_traced`] against an externally owned [`Token`],
/// checked on entry and at every iteration of the main fixpoint, the inner
/// fault-closure fixpoint, and each group-enforcement pick loop.
pub fn cautious_repair_cancellable(
    prog: &mut DistributedProgram,
    opts: &RepairOptions,
    tele: &Telemetry,
    token: &Token,
) -> Result<LazyOutcome, RepairAborted> {
    let r = cautious_repair_inner(prog, opts, tele, token);
    if let Ok(out) = &r {
        let roots: Vec<NodeId> = [out.invariant, out.span, out.trans]
            .into_iter()
            .chain(out.processes.iter().map(|p| p.trans))
            .collect();
        crate::arena::protect_outcome(prog, roots);
    }
    crate::arena::emit_bdd_tele(tele, prog);
    r
}

fn cautious_repair_inner(
    prog: &mut DistributedProgram,
    opts: &RepairOptions,
    tele: &Telemetry,
    token: &Token,
) -> Result<LazyOutcome, RepairAborted> {
    token.check()?;
    crate::arena::configure(prog, opts);
    let started = Instant::now();
    let mut stats = RepairStats::default();

    let (delta_p, faults, universe, t_universe, stutters) = {
        let mut delta_p = FALSE;
        let parts = prog.partitions();
        let cx = &mut prog.cx;
        for t in parts {
            delta_p = cx.mgr().or(delta_p, t);
        }
        let universe = cx.state_universe();
        let t_universe = cx.transition_universe();
        let stutters = cx.deadlocks(universe, delta_p);
        (delta_p, prog.faults, universe, t_universe, stutters)
    };
    let safety = prog.safety;

    // ms / mt exactly as in Step 1 — faults are not subject to grouping.
    let (ms, not_mt) = {
        let cx = &mut prog.cx;
        let bad_fault = cx.mgr().and(faults, safety.bad_trans);
        let bad_fault_sources = cx.preimage_of_anything(bad_fault);
        let mut ms = cx.mgr().or(safety.bad_states, bad_fault_sources);
        ms = cx.mgr().and(ms, universe);
        loop {
            token.check_governed(cx)?;
            let pre = cx.preimage(ms, faults);
            let next = cx.mgr().or(ms, pre);
            if next == ms {
                break;
            }
            ms = next;
        }
        let ms_next = cx.as_next(ms);
        let mut mt = cx.mgr().or(safety.bad_trans, ms_next);
        mt = cx.mgr().and(mt, t_universe);
        (ms, cx.mgr().not(mt))
    };

    // Initial estimates; the span guess is Step 1's chained reachability
    // (see `add_masking`), checkpointing with every live local as a root.
    let frames = prog.write_frames();
    let (mut s1, mut t1) = {
        let cx = &mut prog.cx;
        let safe_delta = cx.mgr().and(delta_p, not_mt);
        let mut s1 = cx.mgr().and(prog.invariant, universe);
        s1 = cx.mgr().diff(s1, ms);
        s1 = semantics::prune_deadlocks_except(cx, s1, safe_delta, stutters);
        let t1 = if opts.restrict_to_reachable {
            let combined = cx.mgr().or(delta_p, faults);
            let parts = cx.split_by_frames(combined, &frames);
            let mut keep = vec![delta_p, t_universe, stutters, ms, not_mt, s1];
            keep.extend(&frames);
            let (reach, _) = cx.forward_reachable_keep(s1, &parts, &keep);
            cx.mgr().diff(reach, ms)
        } else {
            cx.mgr().diff(universe, ms)
        };
        (s1, t1)
    };

    // Recovery candidates must be single-writer (see
    // `add_masking::allowed_transitions`).
    let one_writer = frames.iter().fold(FALSE, |acc, &frame| prog.cx.mgr().or(acc, frame));

    // Transitions permanently outlawed by cycle breaking (grows only).
    let mut banned = FALSE;
    let mut grouped: Vec<NodeId> = vec![FALSE; prog.processes.len()];
    let mut p1;

    // One observation per iteration's group-enforcement pass — the cost
    // this baseline exists to expose, now as a distribution.
    let h_group = tele.histogram("cautious.group_enforcement.seconds");

    let mut iterations = 0usize;
    let fail = |stats: RepairStats| LazyOutcome {
        processes: Vec::new(),
        invariant: FALSE,
        span: FALSE,
        trans: FALSE,
        failed: true,
        stats,
    };

    loop {
        stats.cancel_checks += 1;
        token.check_governed(&prog.cx)?;
        // Previous-iteration `p1`/`grouped` values are dead here (both are
        // fully rebuilt before their next use), so only the long-lived
        // locals are roots.
        prog.cx.maybe_gc(&[delta_p, t_universe, stutters, not_mt, one_writer, banned, s1, t1]);
        iterations += 1;
        stats.outer_iterations = iterations;
        tele.add("repair.outer_iterations", 1);
        if iterations > opts.max_outer_iterations * 8 {
            stats.step1_time = started.elapsed();
            return Ok(fail(stats));
        }

        // Ungrouped allowed relation for the current (S₁, T₁) estimate.
        let p1_raw = {
            let cx = &mut prog.cx;
            let inside_orig = semantics::project(cx, delta_p, s1);
            let inside = cx.mgr().and(inside_orig, not_mt);
            let outside_src = cx.mgr().diff(t1, s1);
            let span_tgt = cx.as_next(t1);
            let mut recovery = cx.mgr().and(outside_src, span_tgt);
            recovery = cx.mgr().and(recovery, not_mt);
            recovery = cx.mgr().and(recovery, t_universe);
            recovery = cx.mgr().and(recovery, one_writer);
            let allowed = cx.mgr().or(inside, recovery);
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
                let mut keep = vec![
                    delta_p, t_universe, stutters, not_mt, one_writer, banned, s1, t1, with_free,
                    p1,
                ];
                keep.extend(grouped.iter().take(j).copied());
                let dj = partition_for(
                    &mut prog.cx,
                    &read,
                    &write,
                    with_free,
                    opts,
                    &keep,
                    &mut stats,
                    tele,
                    token,
                )?;
                grouped[j] = dj;
                p1 = prog.cx.mgr().or(p1, dj);
            }
        }
        h_group.observe_duration(group_started.elapsed());

        // Fixpoint updates against the *grouped* relation.
        let cx = &mut prog.cx;
        let can_reach = cx.backward_reachable(s1, p1);
        let mut t1_new = cx.mgr().and(t1, can_reach);
        loop {
            token.check_governed(cx)?;
            let not_t1 = cx.mgr().not(t1_new);
            let escaping = cx.preimage(not_t1, faults);
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
            s1_new = semantics::prune_deadlocks_except(cx, s1_new, interior, stutters);
        }
        if s1_new == FALSE {
            stats.step1_time = started.elapsed();
            return Ok(fail(stats));
        }

        // Per-iteration BDD shape, mirroring the lazy pipeline's series so
        // run reports of both modes plot the same columns.
        if tele.enabled() {
            let mgr = cx.mgr_ref();
            let inv_nodes = mgr.node_count(s1_new) as u64;
            let span_nodes = mgr.node_count(t1_new) as u64;
            let live = mgr.stats().live_nodes as u64;
            tele.max_gauge("bdd.peak_invariant_nodes", inv_nodes);
            tele.max_gauge("bdd.peak_span_nodes", span_nodes);
            tele.push_sample(
                "iterations",
                &[
                    ("iter", iterations as f64),
                    ("invariant_nodes", inv_nodes as f64),
                    ("span_nodes", span_nodes as f64),
                    ("live_nodes", live as f64),
                ],
            );
        }

        // Cycle breaking, group-consciously: compute the acyclic layered
        // subrelation (same peeling as lazy's Phase 5 — original recovery
        // first, then shortcuts, then jump layers) and outlaw everything
        // else; the next group enforcement drops the offenders' groups.
        let outside = cx.mgr().diff(t1_new, s1_new);
        let safe_orig = cx.mgr().and(delta_p, not_mt);
        let mut roots =
            vec![delta_p, t_universe, stutters, not_mt, one_writer, banned, s1, t1, outside];
        roots.extend(&grouped);
        let kept = crate::ranking::break_cycles(cx, token, &roots, p1, safe_orig, s1_new, t1_new)?;
        let cx = &mut prog.cx;
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
    Ok(LazyOutcome { processes, invariant: s1, span: t1, trans: p1, failed: false, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lazy::{lazy_repair, LazyOutcome};
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

    fn as_lazy(out: &LazyOutcome) -> LazyOutcome {
        LazyOutcome {
            processes: out.processes.clone(),
            invariant: out.invariant,
            span: out.span,
            trans: out.trans,
            failed: out.failed,
            stats: out.stats.clone(),
        }
    }

    #[test]
    fn cautious_repairs_and_verifies() {
        let mut p = partial_view();
        let out = cautious_repair(&mut p, &RepairOptions::default()).unwrap();
        assert!(!out.failed);
        let (m, r) = verify_outcome(&mut p, &as_lazy(&out));
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
        let opts =
            RepairOptions { deadline: Some(std::time::Duration::ZERO), ..RepairOptions::default() };
        let tele = ftrepair_telemetry::Telemetry::new();
        let r = cautious_repair_traced(&mut p, &opts, &tele);
        assert_eq!(r.unwrap_err(), RepairAborted::Timeout);
        let snap = tele.snapshot();
        assert_eq!(snap.counter("repair.outer_iterations"), 0, "aborted before iteration 1");
        assert_eq!(snap.counter("step2.picks"), 0);
    }
}
