//! Step 2 (Algorithm 2): construct a realizable distributed program from
//! the unconstrained output of Step 1 — by removing transitions whose
//! read-restriction group is incomplete, and freely adding transitions that
//! start outside the fault-span (their source states are never reached, so
//! they are harmless and make many groups completable).

use crate::cancel::{RepairAborted, Token};
use crate::options::RepairOptions;
use crate::stats::RepairStats;
use ftrepair_bdd::{NodeId, FALSE};
use ftrepair_program::{realizability, DistributedProgram, Process};
use ftrepair_symbolic::SymbolicContext;
use ftrepair_telemetry::Telemetry;

/// Output of Algorithm 2.
#[derive(Clone, Debug)]
pub struct Step2Result {
    /// Per-process realizable transition predicates `δ_j`.
    pub processes: Vec<Process>,
    /// Their union `δ_P'`.
    pub trans: NodeId,
    /// Counters (groups kept/dropped, expansions, picks).
    pub stats: RepairStats,
}

/// Run Algorithm 2 on the Step 1 output `trans` with fault-span `span`.
/// The deadline (if any) comes from [`RepairOptions::deadline`].
pub fn step2(
    prog: &mut DistributedProgram,
    trans: NodeId,
    span: NodeId,
    opts: &RepairOptions,
) -> Result<Step2Result, RepairAborted> {
    step2_cancellable(prog, trans, span, opts, &Telemetry::off(), &Token::from_options(opts))
}

/// [`step2`] with telemetry, against an externally owned [`Token`] — how
/// Algorithm 1 shares one deadline across both steps. Group
/// pick/keep/drop/expand decisions are counted into `tele` alongside the
/// [`RepairStats`] fields (same events, same numbers — run reports and
/// returned stats must agree).
pub fn step2_cancellable(
    prog: &mut DistributedProgram,
    trans: NodeId,
    span: NodeId,
    opts: &RepairOptions,
    tele: &Telemetry,
    token: &Token,
) -> Result<Step2Result, RepairAborted> {
    token.check()?;
    let mut stats = RepairStats::default();
    let nprocs = prog.processes.len();
    // Line 1: δ := δ_P'' ∪ { (s0, s1) | s0 ∉ T } — all transitions starting
    // outside the fault-span are fair game.
    let delta = with_outside_span(&mut prog.cx, trans, span);

    let mut processes = Vec::with_capacity(nprocs);
    let mut union = FALSE;
    for j in 0..nprocs {
        // Roots for the checkpoints inside the partition loop: the
        // spanning inputs (the caller keeps using `span` afterwards), the
        // shared candidate relation, and everything accumulated so far.
        let mut keep = vec![trans, span, delta, union];
        keep.extend(processes.iter().map(|p: &Process| p.trans));
        let delta_j = process_partition(prog, j, delta, opts, &keep, &mut stats, tele, token)?;
        let p = &prog.processes[j];
        processes.push(Process {
            name: p.name.clone(),
            read: p.read.clone(),
            write: p.write.clone(),
            trans: delta_j,
        });
        union = prog.cx.mgr().or(union, delta_j);
    }
    Ok(Step2Result { processes, trans: union, stats })
}

/// Line 1 of Algorithm 2 as a predicate transform.
pub(crate) fn with_outside_span(cx: &mut SymbolicContext, trans: NodeId, span: NodeId) -> NodeId {
    let outside = {
        let universe = cx.state_universe();
        cx.mgr().diff(universe, span)
    };
    let t_universe = cx.transition_universe();
    let free = cx.mgr().and(outside, t_universe);
    cx.mgr().or(trans, free)
}

/// Lines 4–23: compute `δ_j` for one process of `prog`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_partition(
    prog: &mut DistributedProgram,
    j: usize,
    delta: NodeId,
    opts: &RepairOptions,
    keep: &[NodeId],
    stats: &mut RepairStats,
    tele: &Telemetry,
    token: &Token,
) -> Result<NodeId, RepairAborted> {
    let read = prog.processes[j].read.clone();
    let write = prog.processes[j].write.clone();
    partition_for(&mut prog.cx, &read, &write, delta, opts, keep, stats, tele, token)
}

/// The loop behind [`process_partition`], over just the context and the
/// process's read/write sets, so the cautious baseline runs it too. Checks
/// `token` before each group-operation batch: once per closed-form pass,
/// once per pick in the iterative loop. `keep` lists the caller's live BDD
/// roots — the governance checkpoints here (same boundaries as the token
/// checks) pass them through so a mid-partition collection keeps them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn partition_for(
    cx: &mut SymbolicContext,
    read: &[ftrepair_symbolic::VarId],
    write: &[ftrepair_symbolic::VarId],
    delta: NodeId,
    opts: &RepairOptions,
    keep: &[NodeId],
    stats: &mut RepairStats,
    tele: &Telemetry,
    token: &Token,
) -> Result<NodeId, RepairAborted> {
    let with_keep = |extra: &[NodeId]| {
        let mut roots = keep.to_vec();
        roots.extend_from_slice(extra);
        roots
    };
    cx.maybe_gc(&with_keep(&[delta]));
    // Lock-free counter handles, registered once per process — the inner
    // pick loop only touches atomics. Each increment sits next to its
    // `RepairStats` twin so the two tallies cannot drift apart.
    let c_picks = tele.counter("step2.picks");
    let c_kept = tele.counter("step2.groups_kept");
    let c_dropped = tele.counter("step2.groups_dropped");
    let c_expansions = tele.counter("step2.expansions");

    let unwritable: Vec<_> = cx.var_ids().into_iter().filter(|v| !write.contains(v)).collect();
    let unreadable: Vec<_> = cx.var_ids().into_iter().filter(|v| !read.contains(v)).collect();
    let expandable: Vec<_> = read.iter().copied().filter(|v| !write.contains(v)).collect();

    // Line 5: Δ_j — write-restriction filter.
    let frame = realizability::write_ok(cx, &unwritable);
    let mut cand = cx.mgr().and(delta, frame);
    let t_universe = cx.transition_universe();
    cand = cx.mgr().and(cand, t_universe);

    if cand == FALSE {
        return Ok(FALSE);
    }
    if opts.step2_closed_form {
        stats.cancel_checks += 1;
        token.check_governed(cx)?;
        // Groups are disjoint equivalence classes, so the fixpoint of the
        // pick/drop loop below is exactly the union of classes fully
        // contained in Δ_j:  Δ_j − group(group(Δ_j) − Δ_j).
        let closure = realizability::group(cx, &unreadable, cand);
        let missing = cx.mgr().diff(closure, cand);
        let bad = realizability::group(cx, &unreadable, missing);
        let keep = cx.mgr().diff(cand, bad);
        stats.step2_picks += 1;
        c_picks.inc();
        if keep != FALSE {
            stats.groups_kept += 1;
            c_kept.inc();
        }
        if bad != FALSE {
            stats.groups_dropped += 1;
            c_dropped.inc();
        }
        debug_assert!({
            let g = realizability::group(cx, &unreadable, keep);
            g == keep
        });
        return Ok(keep);
    }

    let all_levels: Vec<u32> = (0..cx.mgr_ref().num_vars()).collect();
    let mut delta_j = FALSE;

    // Lines 7–22: peel off one group (or its expansion) at a time.
    while cand != FALSE {
        stats.cancel_checks += 1;
        token.check_governed(cx)?;
        cx.maybe_gc(&with_keep(&[cand, delta_j]));
        stats.step2_picks += 1;
        c_picks.inc();
        // Line 8: choose one concrete transition.
        let pick = cx.mgr().pick_cube_bdd(cand, &all_levels);
        debug_assert_ne!(pick, FALSE);
        // Line 9: its group.
        let mut g = realizability::group(cx, &unreadable, pick);
        // Line 10: all members present?
        if !cx.mgr().leq(g, cand) {
            // Line 11: incomplete group — remove it wholesale.
            cand = cx.mgr().diff(cand, g);
            stats.groups_dropped += 1;
            c_dropped.inc();
            continue;
        }
        // Lines 13–18: try to expand over each readable-but-not-written
        // variable; keep every expansion that stays inside Δ_j.
        if opts.use_expand_group {
            for &v in &expandable {
                let g2 = realizability::expand_group(cx, v, g);
                if g2 != g && cx.mgr().leq(g2, cand) {
                    g = g2;
                    stats.expansions += 1;
                    c_expansions.inc();
                }
            }
        }
        // Lines 19–20.
        delta_j = cx.mgr().or(delta_j, g);
        cand = cx.mgr().diff(cand, g);
        stats.groups_kept += 1;
        c_kept.inc();
    }
    Ok(delta_j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftrepair_program::verify::verify_realizability;
    use ftrepair_program::{ProgramBuilder, TRUE};

    /// The Figure 3–5 universe: v0, v1, v2 booleans, p_j reads {v0,v1}
    /// writes {v1}, p_k reads {v0,v2} writes {v2}.
    fn fig_builder() -> (DistributedProgram, [ftrepair_symbolic::VarId; 3]) {
        let mut b = ProgramBuilder::new("fig");
        let v0 = b.var("v0", 2);
        let v1 = b.var("v1", 2);
        let v2 = b.var("v2", 2);
        b.process("pj", &[v0, v1], &[v1]);
        b.process("pk", &[v0, v2], &[v2]);
        b.invariant(TRUE);
        (b.build(), [v0, v1, v2])
    }

    #[test]
    fn incomplete_group_is_dropped() {
        // Candidate program = the single Figure-4 transition; span = whole
        // space, so no free additions: Step 2 must delete it.
        let (mut p, _) = fig_builder();
        let t = p.cx.transition_cube(&[0, 0, 0], &[0, 1, 0]);
        let r = step2(&mut p, t, TRUE, &RepairOptions::default()).unwrap();
        assert_eq!(r.trans, FALSE);
        assert!(r.stats.groups_dropped >= 1);
        assert_eq!(r.stats.groups_kept, 0);
    }

    #[test]
    fn complete_group_is_kept_and_realizable() {
        // Candidate = the Figure-5 pair: survives and is realizable by p_j.
        let (mut p, _) = fig_builder();
        let t1 = p.cx.transition_cube(&[0, 0, 0], &[0, 1, 0]);
        let t2 = p.cx.transition_cube(&[0, 0, 1], &[0, 1, 1]);
        let t = p.cx.mgr().or(t1, t2);
        let r = step2(&mut p, t, TRUE, &RepairOptions::default()).unwrap();
        assert!(p.cx.mgr().leq(t, r.trans));
        let report = verify_realizability(&mut p, &r.processes);
        assert!(report.ok(), "{report:?}");
        // It ended up in p_j's partition, not p_k's.
        assert!(p.cx.mgr().leq(t, r.processes[0].trans));
        assert_eq!(r.processes[1].trans, FALSE);
    }

    #[test]
    fn missing_member_outside_span_is_added_for_free() {
        // Figure-4 transition alone, but with the sibling's source (001)
        // outside the span: line 1 adds every transition from it, making
        // the group completable.
        let (mut p, _) = fig_builder();
        let t = p.cx.transition_cube(&[0, 0, 0], &[0, 1, 0]);
        let span = {
            // span = everything except 001.
            let missing = p.cx.state_cube(&[0, 0, 1]);
            p.cx.mgr().not(missing)
        };
        let r = step2(&mut p, t, span, &RepairOptions::default()).unwrap();
        assert!(p.cx.mgr().leq(t, r.trans), "original transition kept");
        let report = verify_realizability(&mut p, &r.processes);
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn output_is_always_realizable() {
        // Whatever the input relation, Step 2's per-process outputs satisfy
        // Definitions 19/20. Try a messy relation.
        let (mut p, _) = fig_builder();
        let a = p.cx.transition_cube(&[0, 0, 0], &[0, 1, 1]); // double write
        let b = p.cx.transition_cube(&[1, 0, 0], &[1, 1, 0]);
        let c = p.cx.transition_cube(&[1, 1, 0], &[1, 1, 1]);
        let ab = p.cx.mgr().or(a, b);
        let t = p.cx.mgr().or(ab, c);
        let r = step2(&mut p, t, TRUE, &RepairOptions::default()).unwrap();
        let report = verify_realizability(&mut p, &r.processes);
        assert!(report.ok(), "{report:?}");
        // The double-write transition cannot survive (no process can do it).
        assert!(p.cx.mgr().disjoint(r.trans, a));
    }

    #[test]
    fn step2_never_adds_transitions_inside_span() {
        let (mut p, _) = fig_builder();
        let t1 = p.cx.transition_cube(&[0, 0, 0], &[0, 1, 0]);
        let t2 = p.cx.transition_cube(&[0, 0, 1], &[0, 1, 1]);
        let t = p.cx.mgr().or(t1, t2);
        let r = step2(&mut p, t, TRUE, &RepairOptions::default()).unwrap();
        // span = TRUE means nothing outside: result ⊆ input.
        assert!(p.cx.mgr().leq(r.trans, t));
    }

    #[test]
    fn expand_group_reduces_iterations() {
        // A relation that is one action over an ignorable guard variable:
        // v1:=1 whenever v1=0, for both values of v0 — with expansion this
        // is a single pick; without, two.
        let (mut p, _) = fig_builder();
        let mk = |p: &mut DistributedProgram, a: u64| {
            let t1 = p.cx.transition_cube(&[a, 0, 0], &[a, 1, 0]);
            let t2 = p.cx.transition_cube(&[a, 0, 1], &[a, 1, 1]);
            p.cx.mgr().or(t1, t2)
        };
        let g0 = mk(&mut p, 0);
        let g1 = mk(&mut p, 1);
        let t = p.cx.mgr().or(g0, g1);

        let with = step2(&mut p, t, TRUE, &RepairOptions::iterative_step2()).unwrap();
        let without = step2(
            &mut p,
            t,
            TRUE,
            &RepairOptions { use_expand_group: false, ..RepairOptions::iterative_step2() },
        )
        .unwrap();
        let closed = step2(&mut p, t, TRUE, &RepairOptions::default()).unwrap();
        assert_eq!(with.trans, without.trans, "same semantics either way");
        assert_eq!(with.trans, closed.trans, "closed form matches the loop");
        assert!(p.cx.mgr().leq(t, with.trans));
        assert!(
            with.stats.step2_picks < without.stats.step2_picks,
            "expansion must save picks: {} vs {}",
            with.stats.step2_picks,
            without.stats.step2_picks
        );
        assert!(with.stats.expansions >= 1);
        assert!(
            closed.stats.step2_picks <= with.stats.step2_picks,
            "closed form does at most one pass per process"
        );
    }

    #[test]
    fn closed_form_equals_iterative_on_messy_relations() {
        let (mut p, _) = fig_builder();
        // A relation mixing complete groups, incomplete groups and write
        // violations, with a nontrivial span.
        let a = p.cx.transition_cube(&[0, 0, 0], &[0, 1, 0]);
        let b = p.cx.transition_cube(&[0, 0, 1], &[0, 1, 1]);
        let c = p.cx.transition_cube(&[1, 0, 0], &[1, 1, 0]); // incomplete
        let d = p.cx.transition_cube(&[1, 1, 0], &[1, 0, 1]); // double write
        let ab = p.cx.mgr().or(a, b);
        let abc = p.cx.mgr().or(ab, c);
        let t = p.cx.mgr().or(abc, d);
        let span = {
            let missing = p.cx.state_cube(&[1, 0, 1]);
            p.cx.mgr().not(missing)
        };
        let iter = step2(&mut p, t, span, &RepairOptions::iterative_step2()).unwrap();
        let closed = step2(&mut p, t, span, &RepairOptions::default()).unwrap();
        assert_eq!(iter.trans, closed.trans);
        for (x, y) in iter.processes.iter().zip(&closed.processes) {
            assert_eq!(x.trans, y.trans, "process {} differs", x.name);
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let (mut p, _) = fig_builder();
        let r = step2(&mut p, FALSE, TRUE, &RepairOptions::default()).unwrap();
        assert_eq!(r.trans, FALSE);
        assert_eq!(r.stats.step2_picks, 0);
    }

    #[test]
    fn expired_deadline_aborts_before_any_pick() {
        let (mut p, _) = fig_builder();
        let t1 = p.cx.transition_cube(&[0, 0, 0], &[0, 1, 0]);
        let t2 = p.cx.transition_cube(&[0, 0, 1], &[0, 1, 1]);
        let t = p.cx.mgr().or(t1, t2);
        let opts =
            RepairOptions { deadline: Some(std::time::Duration::ZERO), ..Default::default() };
        let tele = Telemetry::new();
        let r = step2_cancellable(&mut p, t, TRUE, &opts, &tele, &Token::from_options(&opts));
        assert_eq!(r.unwrap_err(), RepairAborted::Timeout);
        assert_eq!(tele.snapshot().counter("step2.picks"), 0, "no pick before the abort");
    }

    #[test]
    fn with_outside_span_adds_full_rows() {
        let (mut p, _) = fig_builder();
        let span = p.cx.state_cube(&[0, 0, 0]); // tiny span
        let d = with_outside_span(&mut p.cx, FALSE, span);
        // 7 outside states × 8 targets.
        assert_eq!(p.cx.count_transitions(d), 56.0);
    }
}
