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
//! The rounds compute only the layers. Let `A_0 = S₁`, let `A_k` be the
//! assigned states after round `k` (peel rounds first, then BFS rounds),
//! so that round `k`'s layer is `L_k = A_k ∖ A_{k−1}`, and rank a state by
//! `R(x) = min{k : x ∈ A_k}` (∞ if no round assigns it). The steps the
//! rounds admit are exactly the steps that lower the rank:
//!
//! `⋃_k p1 ∧ L_k(x) ∧ A_{k−1}(x')` = `{(x,x') ∈ p1 : R(x) < ∞ ∧ R(x') < R(x)}`.
//!
//! So after the last round the nested sets become one edge-valued rank
//! diagram ([`ftrepair_bdd::RankDiagram`]) and one rank-descent product
//! ([`ftrepair_bdd::Manager::rank_descent`]) builds the whole union, instead
//! of one `p1 ∧ layer ∧ next(assigned)` product per round whose
//! intermediates are far larger than the union they build.
//!
//! On the chains these rounds are most of Step 1, so each one starts, like
//! every other repair loop, by polling the token and enforcing the node
//! budget with every `A_k` rooted, and so does the product. It does not
//! collect at the garbage-collection trigger: each round's preimage reuses
//! the previous round's intermediate results through the computed table,
//! and collecting them there made Sc^30's repair 10× slower (DESIGN.md §6
//! item 10).

use crate::cancel::{RepairAborted, Token};
use ftrepair_bdd::{NodeId, FALSE};
use ftrepair_program::semantics;
use ftrepair_symbolic::SymbolicContext;

/// Phase 5's relation and the figures its `step1.ranking` span reports.
#[derive(Clone, Copy, Debug)]
pub struct Ranked {
    /// `p1|S₁` plus the layered recovery edges.
    pub trans: NodeId,
    /// Peel plus BFS rounds that added a layer.
    pub rounds: usize,
    /// Internal nodes of the rank diagram.
    pub rank_nodes: usize,
    /// States the rank-descent product memoized.
    pub descent_states: usize,
}

/// Break cycles in `p1` outside `s1`, preferring the original program's
/// recovery structure. `orig_safe` is the original transition relation
/// minus `mt`; `t1` is the fault-span. Returns the final transition
/// relation, `p1|S₁` plus the layered recovery edges, with its figures.
///
/// `token` is polled at the head of every peel and BFS round and before
/// the product, where the node budget is also enforced; `roots` are the
/// caller's live `NodeId`s that are not protected, which the budget's
/// rescue collection keeps alive.
pub fn break_cycles(
    cx: &mut SymbolicContext,
    token: &Token,
    roots: &[NodeId],
    p1: NodeId,
    orig_safe: NodeId,
    s1: NodeId,
    t1: NodeId,
) -> Result<Ranked, RepairAborted> {
    // Original safe edges within the span.
    let orig_in_span = semantics::project(cx, orig_safe, t1);
    // The region the original program can bring back to S₁.
    let region = cx.backward_reachable(s1, orig_in_span);

    // `nested[k]` is `A_k`; the last entry is every state assigned so far.
    let mut nested = vec![s1];
    let checkpoint = |cx: &mut SymbolicContext, nested: &[NodeId], remaining: NodeId| {
        token.check_governed(cx)?;
        let mut live = vec![p1, orig_safe, s1, t1, orig_in_span, region, remaining];
        live.extend_from_slice(nested);
        live.extend_from_slice(roots);
        cx.mgr().enforce_node_budget(&live);
        Ok(())
    };
    // Phase 1+2: reverse-topological peeling of the original subgraph.
    let mut remaining = {
        let r = cx.mgr().diff(region, s1);
        cx.mgr().and(r, t1)
    };
    loop {
        checkpoint(cx, &nested, remaining)?;
        if remaining == FALSE {
            break;
        }
        // States of `remaining` with an original edge into `remaining`
        // cannot be peeled yet.
        let blocked = cx.preimage(remaining, orig_in_span);
        let layer = cx.mgr().diff(remaining, blocked);
        if layer == FALSE {
            break; // original edges form a cycle here: leave to phase 3
        }
        remaining = cx.mgr().diff(remaining, layer);
        let assigned = *nested.last().expect("A_0");
        let assigned = cx.mgr().or(assigned, layer);
        nested.push(assigned);
    }

    // Phase 3: BFS over p1 for everything else.
    loop {
        checkpoint(cx, &nested, FALSE)?;
        let assigned = *nested.last().expect("A_0");
        let pre = cx.preimage(assigned, p1);
        let layer = {
            let fresh = cx.mgr().diff(pre, assigned);
            cx.mgr().and(fresh, t1)
        };
        if layer == FALSE {
            break;
        }
        let assigned = cx.mgr().or(assigned, layer);
        nested.push(assigned);
    }

    // Every round's edges at once: the steps of `p1` that lower the rank.
    checkpoint(cx, &nested, FALSE)?;
    let rank = cx.mgr_ref().rank_diagram(&nested);
    let cur_to_next = cx.map_cur_to_next();
    let descent = cx.mgr().rank_descent(p1, &rank, cur_to_next);
    let inside = semantics::project(cx, p1, s1);
    let trans = cx.mgr().or(inside, descent);
    Ok(Ranked {
        trans,
        rounds: nested.len() - 1,
        rank_nodes: rank.node_count(),
        descent_states: rank.descent_states(),
    })
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
        let out = break_cycles(cx, &Token::unbounded(), &[], p1, orig, s1, t1).unwrap().trans;
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
        let out = break_cycles(cx, &Token::unbounded(), &[], p1, orig, s1, TRUE).unwrap().trans;
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
        break_cycles(&mut p.cx, token, &[], p1, orig, s1, TRUE).map(|r| r.trans)
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

    /// Phase 5 on `stabilizing_chain(4, 3)` with the inputs Step 1 hands
    /// it, under the smallest node budget it completes within: the arena
    /// is then over budget at nearly every round, so the rescue collection
    /// runs there and frees everything but the checkpoint's roots. The
    /// layers must be among them.
    #[test]
    fn collecting_budget_keeps_the_layers_and_the_result() {
        let (mut p, _) = ftrepair_casestudies::chain::stabilizing_chain(4, 3);
        let (invariant, safety) = (p.invariant, p.safety);
        let token = Token::unbounded();
        let seeds = crate::WarmSeeds::none();
        let off = ftrepair_telemetry::Telemetry::off();
        let step1 = crate::add_masking(&mut p, invariant, &safety, true, &off, &token, &seeds)
            .expect("unbounded");
        let delta_p = p.program_trans();
        let cx = &mut p.cx;
        let safe = cx.mgr().diff(delta_p, step1.mt);
        let (p1, s1, t1, expected) = (step1.allowed, step1.invariant, step1.span, step1.trans);
        let run = |cx: &mut SymbolicContext, budget: usize| {
            cx.set_node_budget(budget);
            let collections = cx.mgr_ref().stats().gc_runs;
            let ranked = break_cycles(cx, &token, &[expected], p1, safe, s1, t1);
            (ranked, cx.mgr_ref().stats().gc_runs - collections)
        };
        let (unbudgeted, _) = run(cx, 0);
        let unbudgeted = unbudgeted.expect("no budget");
        assert_eq!(unbudgeted.trans, expected, "Phase 5 is Step 1's last phase");

        // The smallest budget that does not latch: `lo` aborts, `hi` completes.
        let (mut lo, mut hi) = (1, cx.mgr_ref().stats().live_nodes);
        assert!(run(cx, lo).0.is_err() && run(cx, hi).0.is_ok(), "setup: the bounds hold");
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            match run(cx, mid).0 {
                Ok(_) => hi = mid,
                Err(e) => {
                    assert_eq!(e, RepairAborted::ResourceExhausted);
                    lo = mid;
                }
            }
        }
        let (ranked, collections) = run(cx, hi);
        let ranked = ranked.expect("completes at the smallest budget");
        assert!(!cx.budget_exhausted());
        assert!(
            collections >= ranked.rounds,
            "{collections} collections over {} rounds",
            ranked.rounds
        );
        assert_eq!(ranked.trans, expected);
        cx.mgr_ref().check_integrity();
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
