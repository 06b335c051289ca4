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

/// Output of Algorithm 2.
#[derive(Clone, Debug)]
pub struct Step2Result {
    /// Per-process realizable transition predicates `δ_j`.
    pub processes: Vec<Process>,
    /// Their union `δ_P'`.
    pub trans: NodeId,
}

/// Run Algorithm 2 on the Step 1 output `trans` with fault-span `span`,
/// against `token` — how Algorithm 1 shares one deadline across both
/// steps. Group pick/keep/drop/expand decisions are added into `stats`,
/// the caller's tally for the whole repair.
pub fn step2(
    prog: &mut DistributedProgram,
    trans: NodeId,
    span: NodeId,
    opts: &RepairOptions,
    stats: &mut RepairStats,
    token: &Token,
) -> Result<Step2Result, RepairAborted> {
    token.check()?;
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
        let p = &prog.processes[j];
        let (name, read, write) = (p.name.clone(), p.read.clone(), p.write.clone());
        let delta_j = partition_for(&mut prog.cx, &read, &write, delta, opts, &keep, stats, token)?;
        processes.push(Process { name, read, write, trans: delta_j });
        union = prog.cx.mgr().or(union, delta_j);
    }
    Ok(Step2Result { processes, trans: union })
}

/// Line 1 of Algorithm 2 as a predicate transform.
pub fn with_outside_span(cx: &mut SymbolicContext, trans: NodeId, span: NodeId) -> NodeId {
    let outside = {
        let universe = cx.state_universe();
        cx.mgr().diff(universe, span)
    };
    let t_universe = cx.transition_universe();
    let free = cx.mgr().and(outside, t_universe);
    cx.mgr().or(trans, free)
}

/// Lines 4–23: compute `δ_j` for the process with read set `read` and
/// write set `write`, from Line 1's relation `delta`. It takes just the
/// context and the two sets, so the cautious baseline runs it too. Checks
/// `token` before each group-operation batch: once per closed-form pass,
/// once per pick in the iterative loop. `keep` lists the caller's live BDD
/// roots — the governance checkpoints here (same boundaries as the token
/// checks) pass them through so a mid-partition collection keeps them.
/// Group decisions are added into `stats`.
#[allow(clippy::too_many_arguments)]
pub fn partition_for(
    cx: &mut SymbolicContext,
    read: &[ftrepair_symbolic::VarId],
    write: &[ftrepair_symbolic::VarId],
    delta: NodeId,
    opts: &RepairOptions,
    keep: &[NodeId],
    stats: &mut RepairStats,
    token: &Token,
) -> Result<NodeId, RepairAborted> {
    let with_keep = |extra: &[NodeId]| {
        let mut roots = keep.to_vec();
        roots.extend_from_slice(extra);
        roots
    };
    cx.maybe_gc(&with_keep(&[delta]));

    let unwritable: Vec<_> = cx.var_ids().into_iter().filter(|v| !write.contains(v)).collect();
    let unreadable: Vec<_> = cx.var_ids().into_iter().filter(|v| !read.contains(v)).collect();
    let expandable: Vec<_> = read.iter().copied().filter(|v| !write.contains(v)).collect();

    // Line 5: Δ_j.
    let mut cand = candidates(cx, &unwritable, delta);
    if cand == FALSE {
        return Ok(FALSE);
    }
    if opts.step2_closed_form {
        token.check_governed(cx)?;
        let keep = complete_groups(cx, &unreadable, cand);
        stats.step2_picks += 1;
        if keep != FALSE {
            stats.groups_kept += 1;
        }
        // Every incomplete group is the group of some step of Δ_j, so a
        // group was dropped iff `keep` lost a step.
        if keep != cand {
            stats.groups_dropped += 1;
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
        token.check_governed(cx)?;
        cx.maybe_gc(&with_keep(&[cand, delta_j]));
        stats.step2_picks += 1;
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
                }
            }
        }
        // Lines 19–20.
        delta_j = cx.mgr().or(delta_j, g);
        cand = cx.mgr().diff(cand, g);
        stats.groups_kept += 1;
    }
    Ok(delta_j)
}

/// Line 5: `Δ_j`, the steps of `delta` that a process whose unwritable
/// set is `unwritable` may take and that stay inside the transition
/// universe: `δ ∧ (write_ok_j ∧ t_universe)`. The two small constraints
/// are conjoined first, so `δ` meets them in one product.
pub fn candidates(
    cx: &mut SymbolicContext,
    unwritable: &[ftrepair_symbolic::VarId],
    delta: NodeId,
) -> NodeId {
    let frame = realizability::write_ok(cx, unwritable);
    let t_universe = cx.transition_universe();
    let legal = cx.mgr().and(frame, t_universe);
    cx.mgr().and(delta, legal)
}

/// The closed form of Lines 7–22: the union of the groups (over the
/// unreadable set `unreadable`) that lie wholly inside `cand`, which is
/// the fixpoint of the pick/drop loop because groups are disjoint
/// equivalence classes. It equals `Δ_j − group(group(Δ_j) − Δ_j)`, in one
/// relational product instead of two group abstractions:
///
/// `δ_j = Δ_j ∖ ∃U,U′.(tie_U ∧ dom_U ∧ ¬Δ_j)`
///
/// A step of `Δ_j` survives iff every member of its group — the same step
/// with `U = U′` set to any value in `U`'s domain — is in `Δ_j`. Line 5
/// keeps every step of `Δ_j` inside `tie_U` (`W ⊆ R`, so `U` is
/// unwritable) and inside `dom_U` (the transition universe), which is what
/// makes the two forms equal.
fn complete_groups(
    cx: &mut SymbolicContext,
    unreadable: &[ftrepair_symbolic::VarId],
    cand: NodeId,
) -> NodeId {
    let mut members = cx.unchanged_all(unreadable);
    for &v in unreadable {
        let dom = cx.domain_cur(v);
        members = cx.mgr().and(members, dom);
    }
    let outside = cx.mgr().not(cand);
    let both = cx.both_varset(unreadable);
    let incomplete = cx.mgr().and_exists(members, outside, both);
    cx.mgr().diff(cand, incomplete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftrepair_program::verify::verify_realizability;
    use ftrepair_program::{ProgramBuilder, TRUE};

    /// Unbounded Step 2 and its counts.
    fn run(
        p: &mut DistributedProgram,
        trans: NodeId,
        span: NodeId,
        opts: &RepairOptions,
    ) -> (Step2Result, RepairStats) {
        let mut stats = RepairStats::default();
        let r = step2(p, trans, span, opts, &mut stats, &Token::unbounded()).unwrap();
        (r, stats)
    }

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
        let (r, stats) = run(&mut p, t, TRUE, &RepairOptions::default());
        assert_eq!(r.trans, FALSE);
        assert!(stats.groups_dropped >= 1);
        assert_eq!(stats.groups_kept, 0);
    }

    #[test]
    fn complete_group_is_kept_and_realizable() {
        // Candidate = the Figure-5 pair: survives and is realizable by p_j.
        let (mut p, _) = fig_builder();
        let t1 = p.cx.transition_cube(&[0, 0, 0], &[0, 1, 0]);
        let t2 = p.cx.transition_cube(&[0, 0, 1], &[0, 1, 1]);
        let t = p.cx.mgr().or(t1, t2);
        let (r, _) = run(&mut p, t, TRUE, &RepairOptions::default());
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
        let (r, _) = run(&mut p, t, span, &RepairOptions::default());
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
        let (r, _) = run(&mut p, t, TRUE, &RepairOptions::default());
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
        let (r, _) = run(&mut p, t, TRUE, &RepairOptions::default());
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

        let (with, with_stats) = run(&mut p, t, TRUE, &RepairOptions::iterative_step2());
        let (without, without_stats) = run(
            &mut p,
            t,
            TRUE,
            &RepairOptions { use_expand_group: false, ..RepairOptions::iterative_step2() },
        );
        let (closed, closed_stats) = run(&mut p, t, TRUE, &RepairOptions::default());
        assert_eq!(with.trans, without.trans, "same semantics either way");
        assert_eq!(with.trans, closed.trans, "closed form matches the loop");
        assert!(p.cx.mgr().leq(t, with.trans));
        assert!(
            with_stats.step2_picks < without_stats.step2_picks,
            "expansion must save picks: {} vs {}",
            with_stats.step2_picks,
            without_stats.step2_picks
        );
        assert!(with_stats.expansions >= 1);
        assert!(
            closed_stats.step2_picks <= with_stats.step2_picks,
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
        let (iter, _) = run(&mut p, t, span, &RepairOptions::iterative_step2());
        let (closed, _) = run(&mut p, t, span, &RepairOptions::default());
        assert_eq!(iter.trans, closed.trans);
        for (x, y) in iter.processes.iter().zip(&closed.processes) {
            assert_eq!(x.trans, y.trans, "process {} differs", x.name);
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let (mut p, _) = fig_builder();
        let (r, stats) = run(&mut p, FALSE, TRUE, &RepairOptions::default());
        assert_eq!(r.trans, FALSE);
        assert_eq!(stats.step2_picks, 0);
    }

    #[test]
    fn expired_deadline_aborts_before_any_pick() {
        let (mut p, _) = fig_builder();
        let t1 = p.cx.transition_cube(&[0, 0, 0], &[0, 1, 0]);
        let t2 = p.cx.transition_cube(&[0, 0, 1], &[0, 1, 1]);
        let t = p.cx.mgr().or(t1, t2);
        let mut stats = RepairStats::default();
        let token = Token::deadline_in(std::time::Duration::ZERO);
        let r = step2(&mut p, t, TRUE, &RepairOptions::default(), &mut stats, &token);
        assert_eq!(r.unwrap_err(), RepairAborted::Timeout);
        assert_eq!(stats.step2_picks, 0, "no pick before the abort");
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
