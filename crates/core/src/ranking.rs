//! Cycle breaking for recovery relations.
//!
//! Step 1's fixpoint leaves a *maximal* relation `p1` that typically
//! contains cycles in `T₁ − S₁` (any two mutual recovery jumps form one).
//! Masking tolerance needs every computation to reach `S₁`, so cycles must
//! be broken — but carelessly breaking them (e.g. keeping only transitions
//! that decrease the plain BFS distance to `S₁`) destroys the original
//! program's own multi-step recovery paths, whose read-restriction groups
//! are the ones guaranteed to be complete in Step 2.
//!
//! [`break_cycles`] therefore layers the span in three phases:
//!
//! 1. **Peel** the subgraph of original safe transitions that can reach
//!    `S₁`, in reverse-topological rounds: a state is peeled once *all* its
//!    original successors are peeled. Every original acyclic recovery edge
//!    is kept this way.
//! 2. At each peel round, also admit every `p1` transition from the new
//!    layer into already-peeled states — maximal shortcuts that provably
//!    cannot create a cycle (they strictly decrease the round index).
//! 3. **Fallback BFS** over `p1` for the states the original program cannot
//!    bring back (including any originally-cyclic region): pure synthesized
//!    recovery, layered the same way.
//!
//! On the chains these rounds are most of Step 1, so each one starts, like
//! every other repair loop, by polling the token and enforcing the node
//! budget. It does not collect at the garbage-collection trigger: each
//! round reuses the previous round's intermediate results through the
//! computed table, and collecting them there made Sc^20's repair 8×
//! slower (DESIGN.md §6 item 10).

use crate::cancel::{RepairAborted, Token};
use ftrepair_bdd::{NodeId, FALSE};
use ftrepair_program::semantics;
use ftrepair_symbolic::SymbolicContext;

/// Break cycles in `p1` outside `s1`, preferring the original program's
/// recovery structure. `orig_safe` is the original transition relation
/// minus `mt`; `t1` is the fault-span. Returns the final transition
/// relation: `p1|S₁` plus the layered recovery edges.
///
/// `token` is polled at the head of every peel and BFS round, where the
/// node budget is also enforced; `roots` are the caller's live `NodeId`s
/// that are not protected, which the budget's rescue collection keeps
/// alive.
pub fn break_cycles(
    cx: &mut SymbolicContext,
    token: &Token,
    roots: &[NodeId],
    p1: NodeId,
    orig_safe: NodeId,
    s1: NodeId,
    t1: NodeId,
) -> Result<NodeId, RepairAborted> {
    let mut trans = semantics::project(cx, p1, s1);

    // Original safe edges within the span.
    let orig_in_span = semantics::project(cx, orig_safe, t1);
    // The region the original program can bring back to S₁.
    let region = cx.backward_reachable(s1, orig_in_span);

    let mut assigned = s1;
    let checkpoint = |cx: &mut SymbolicContext, trans: NodeId, assigned: NodeId| {
        token.check_governed(cx)?;
        let mut live = vec![p1, orig_safe, s1, t1, orig_in_span, region, trans, assigned];
        live.extend_from_slice(roots);
        cx.mgr().enforce_node_budget(&live);
        Ok(())
    };
    // Phase 1+2: reverse-topological peeling of the original subgraph.
    loop {
        checkpoint(cx, trans, assigned)?;
        let remaining = {
            let r = cx.mgr().diff(region, assigned);
            cx.mgr().and(r, t1)
        };
        if remaining == FALSE {
            break;
        }
        // States of `remaining` with an original edge into `remaining`
        // cannot be peeled yet.
        let blocked = {
            let into_remaining = cx.trans_to(orig_in_span, remaining);
            cx.preimage_of_anything(into_remaining)
        };
        let layer = cx.mgr().diff(remaining, blocked);
        if layer == FALSE {
            break; // original edges form a cycle here: leave to phase 3
        }
        let target = cx.as_next(assigned);
        let from_layer = cx.mgr().and(p1, layer);
        let kept = cx.mgr().and(from_layer, target);
        trans = cx.mgr().or(trans, kept);
        assigned = cx.mgr().or(assigned, layer);
    }

    // Phase 3: BFS over p1 for everything else.
    loop {
        checkpoint(cx, trans, assigned)?;
        let pre = cx.preimage(assigned, p1);
        let layer = {
            let fresh = cx.mgr().diff(pre, assigned);
            cx.mgr().and(fresh, t1)
        };
        if layer == FALSE {
            break;
        }
        let target = cx.as_next(assigned);
        let from_layer = cx.mgr().and(p1, layer);
        let kept = cx.mgr().and(from_layer, target);
        trans = cx.mgr().or(trans, kept);
        assigned = cx.mgr().or(assigned, layer);
    }

    Ok(trans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftrepair_bdd::TRUE;
    use ftrepair_program::{ProgramBuilder, Update};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    /// Line 3←2←1←0 plus full jump relation; peeling must keep every
    /// original edge and admit only forward shortcuts.
    #[test]
    fn peel_keeps_original_line_edges() {
        let mut b = ProgramBuilder::new("line");
        let x = b.var("x", 4);
        b.process("p", &[x], &[x]);
        for v in 1..4u64 {
            let g = b.cx().assign_eq(x, v);
            b.action(g, &[(x, Update::Const(v - 1))]);
        }
        b.invariant(TRUE);
        let mut p = b.build();
        let cx = &mut p.cx;
        let orig = p.processes[0].trans;
        let s1 = cx.assign_eq(x, 0);
        let t1 = TRUE;
        // p1 = everything except self-loops... keep it simple: all pairs.
        let p1 = cx.transition_universe();
        let out = break_cycles(cx, &Token::unbounded(), &[], p1, orig, s1, t1).unwrap();
        // Original edges kept.
        for v in 1..4u64 {
            let e = cx.transition_cube(&[v], &[v - 1]);
            assert!(cx.mgr().leq(e, out), "original edge {v}->{} lost", v - 1);
        }
        // Shortcut 3→0 kept; backward 1→2 dropped; self-loop 2→2 dropped.
        let shortcut = cx.transition_cube(&[3], &[0]);
        assert!(cx.mgr().leq(shortcut, out));
        let backward = cx.transition_cube(&[1], &[2]);
        assert!(cx.mgr().disjoint(backward, out));
        let selfloop = cx.transition_cube(&[2], &[2]);
        assert!(cx.mgr().disjoint(selfloop, out));
    }

    /// With a cyclic original program, the cyclic part falls back to BFS
    /// jumps and the output is still acyclic outside the invariant.
    #[test]
    fn cyclic_original_falls_back() {
        let mut b = ProgramBuilder::new("cycle");
        let x = b.var("x", 3);
        b.process("p", &[x], &[x]);
        // 1→2 and 2→1: a cycle that never reaches 0.
        let g1 = b.cx().assign_eq(x, 1);
        b.action(g1, &[(x, Update::Const(2))]);
        let g2 = b.cx().assign_eq(x, 2);
        b.action(g2, &[(x, Update::Const(1))]);
        b.invariant(TRUE);
        let mut p = b.build();
        let cx = &mut p.cx;
        let orig = p.processes[0].trans;
        let s1 = cx.assign_eq(x, 0);
        let p1 = cx.transition_universe();
        let out = break_cycles(cx, &Token::unbounded(), &[], p1, orig, s1, TRUE).unwrap();
        // Both cycle states recover directly to 0.
        for v in 1..3u64 {
            let rec = cx.transition_cube(&[v], &[0]);
            assert!(cx.mgr().leq(rec, out), "{v} must recover");
        }
        // No infinite path outside the invariant.
        let outside = cx.mgr().not(s1);
        let outside_trans = semantics::project(cx, out, outside);
        let mut avoid = outside;
        loop {
            let within = semantics::project(cx, outside_trans, avoid);
            let alive = cx.preimage_of_anything(within);
            let next = cx.mgr().and(avoid, alive);
            if next == avoid {
                break;
            }
            avoid = next;
        }
        assert_eq!(avoid, FALSE);
    }

    /// The line of `peel_keeps_original_line_edges`: three peel rounds'
    /// worth of work, so an abort must come from the first poll, at the
    /// head of the first round, before any layer is added. `budget` arms
    /// the manager's node budget (0 = unlimited).
    fn break_line_under(token: &Token, budget: usize) -> Result<NodeId, RepairAborted> {
        let mut b = ProgramBuilder::new("line");
        let x = b.var("x", 4);
        b.process("p", &[x], &[x]);
        for v in 1..4u64 {
            let g = b.cx().assign_eq(x, v);
            b.action(g, &[(x, Update::Const(v - 1))]);
        }
        b.invariant(TRUE);
        let mut p = b.build();
        let orig = p.processes[0].trans;
        let s1 = p.cx.assign_eq(x, 0);
        let p1 = p.cx.transition_universe();
        p.cx.set_node_budget(budget);
        break_cycles(&mut p.cx, token, &[], p1, orig, s1, TRUE)
    }

    #[test]
    fn raised_flag_cancels_before_the_first_layer() {
        let flag = Arc::new(AtomicBool::new(true));
        let token = Token::unbounded().with_flag(flag);
        assert_eq!(break_line_under(&token, 0), Err(RepairAborted::Cancelled));
    }

    #[test]
    fn expired_deadline_times_out_before_the_first_layer() {
        let token = Token::deadline_in(Duration::ZERO);
        assert_eq!(break_line_under(&token, 0), Err(RepairAborted::Timeout));
    }

    #[test]
    fn node_budget_binds_inside_the_rounds() {
        // The rescue collection keeps every root, so the arena stays over
        // a one-node budget: the first round latches, the next aborts.
        let unbounded = Token::unbounded();
        assert!(break_line_under(&unbounded, 0).is_ok());
        assert_eq!(break_line_under(&unbounded, 1), Err(RepairAborted::ResourceExhausted));
    }
}
