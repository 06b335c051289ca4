//! Counting and enumerating concrete states/transitions — the bridge from
//! symbolic fixpoints back to numbers in experiment tables, to concrete
//! witnesses in tests, and to the explicit state graph.
//!
//! Enumeration is one read-only, depth-first walk down the levels
//! ([`SymbolicContext::for_each_state`], [`SymbolicContext::for_each_transition`]):
//! variable by variable, it follows the BDD's branches for every in-domain
//! value (or value pair), treats a skipped level as a don't-care, prunes at
//! ⊥ and reports every path that reaches ⊤. It builds no node. On a
//! predicate within the domains every prefix it extends leads to a result,
//! so its cost grows with the results (times the levels and the values
//! tried per variable), not with the number of states or state pairs.

use crate::context::{SymbolicContext, VarId};
use ftrepair_bdd::{NodeId, FALSE, TRUE};
use std::ops::ControlFlow;

impl SymbolicContext {
    /// Number of states in a state predicate (a BDD over current bits).
    ///
    /// Counts minterms over the current-bit universe. Dead encodings of
    /// non-power-of-two domains are excluded by conjoining the state
    /// universe, so predicates need not be pre-constrained.
    pub fn count_states(&mut self, states: NodeId) -> f64 {
        let universe = self.state_universe();
        let constrained = self.mgr().and(states, universe);
        debug_assert!(
            self.mgr_ref().support(constrained).iter().all(|l| l % 2 == 0),
            "state predicate depends on next-state bits"
        );
        let total = self.total_bits();
        self.mgr_ref().sat_count(constrained) / 2f64.powi(total as i32)
    }

    /// Number of transitions in a transition predicate (over both copies).
    pub fn count_transitions(&mut self, trans: NodeId) -> f64 {
        let universe = self.transition_universe();
        let constrained = self.mgr().and(trans, universe);
        self.mgr_ref().sat_count(constrained)
    }

    /// Call `visit` on every in-domain state of a state predicate, as
    /// variable values in declaration order, in lexicographic order, until
    /// it breaks. Next-state levels read as 0, so a predicate over both
    /// copies yields the states `s` with `(s, 0…0)` in it.
    pub fn for_each_state(&self, states: NodeId, mut visit: impl FnMut(&[u64]) -> ControlFlow<()>) {
        let _ = self.walk(states, false, &mut |from: &[u64], _: &[u64]| visit(from));
    }

    /// Call `visit` on every transition `(from, to)` of a transition
    /// predicate whose two states are both in domain, until it breaks.
    /// The order is lexicographic in the interleaved values
    /// `(from₀, to₀, from₁, to₁, …)`.
    pub fn for_each_transition(
        &self,
        trans: NodeId,
        mut visit: impl FnMut(&[u64], &[u64]) -> ControlFlow<()>,
    ) {
        let _ = self.walk(trans, true, &mut visit);
    }

    /// Up to `limit` concrete states of a state predicate, each as a vector
    /// of variable values in declaration order, sorted. Intended for tests
    /// and small examples.
    pub fn enumerate_states(&self, states: NodeId, limit: usize) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        self.for_each_state(states, |s| push_within(&mut out, s.to_vec(), limit));
        out.sort_unstable();
        out
    }

    /// Up to `limit` concrete transitions as `(from, to)` value vectors,
    /// sorted. Intended for tests and small examples.
    pub fn enumerate_transitions(&self, trans: NodeId, limit: usize) -> Vec<(Vec<u64>, Vec<u64>)> {
        let mut out = Vec::new();
        self.for_each_transition(trans, |a, b| {
            push_within(&mut out, (a.to_vec(), b.to_vec()), limit)
        });
        out.sort_unstable();
        out
    }

    /// The walk behind [`Self::for_each_state`] (`pairs = false`: next bits
    /// follow the 0-branch) and [`Self::for_each_transition`].
    fn walk<F>(&self, f: NodeId, pairs: bool, visit: &mut F) -> ControlFlow<()>
    where
        F: FnMut(&[u64], &[u64]) -> ControlFlow<()>,
    {
        let n = self.num_program_vars();
        let mut walk = Walk { cx: self, pairs, from: vec![0; n], to: vec![0; n], visit };
        walk.var(0, f)
    }
}

/// Push `item` while `out` holds fewer than `limit` items; break once full.
fn push_within<T>(out: &mut Vec<T>, item: T, limit: usize) -> ControlFlow<()> {
    if out.len() == limit {
        return ControlFlow::Break(());
    }
    out.push(item);
    ControlFlow::Continue(())
}

/// The state of one enumeration walk: the values fixed so far.
struct Walk<'a, F> {
    cx: &'a SymbolicContext,
    pairs: bool,
    from: Vec<u64>,
    to: Vec<u64>,
    visit: &'a mut F,
}

impl<F: FnMut(&[u64], &[u64]) -> ControlFlow<()>> Walk<'_, F> {
    /// Fix variable `i` (and every later one) in every way `f` admits.
    /// `f`'s top level is at or below variable `i`'s first bit.
    fn var(&mut self, i: usize, f: NodeId) -> ControlFlow<()> {
        if i == self.from.len() {
            return if f == TRUE {
                (self.visit)(&self.from, &self.to)
            } else {
                ControlFlow::Continue(())
            };
        }
        let info = self.cx.info(VarId(i as u32));
        let (size, bits, offset) = (info.size, info.bits, info.offset);
        let m = self.cx.mgr_ref();
        let nexts = if self.pairs { size } else { 1 };
        for x in 0..size {
            for y in 0..nexts {
                let mut g = f;
                for k in 0..bits {
                    let level = 2 * (offset + k);
                    g = m.branch(g, level, (x >> k) & 1 == 1);
                    g = m.branch(g, level + 1, (y >> k) & 1 == 1);
                    if g == FALSE {
                        break;
                    }
                }
                if g != FALSE {
                    self.from[i] = x;
                    self.to[i] = y;
                    self.var(i + 1, g)?;
                }
            }
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftrepair_bdd::{FALSE, TRUE};

    #[test]
    fn count_states_of_constants() {
        let mut cx = SymbolicContext::new();
        cx.add_var("a", 3);
        cx.add_var("b", 5);
        assert_eq!(cx.count_states(TRUE), 15.0);
        assert_eq!(cx.count_states(FALSE), 0.0);
    }

    #[test]
    fn count_transitions_of_true_is_square() {
        let mut cx = SymbolicContext::new();
        cx.add_var("a", 3);
        assert_eq!(cx.count_transitions(TRUE), 9.0);
    }

    #[test]
    fn enumerate_states_lists_all() {
        let mut cx = SymbolicContext::new();
        let a = cx.add_var("a", 3);
        let e0 = cx.assign_eq(a, 0);
        let e2 = cx.assign_eq(a, 2);
        let f = cx.mgr().or(e0, e2);
        assert_eq!(cx.enumerate_states(f, 100), vec![vec![0], vec![2]]);
    }

    #[test]
    fn enumerate_respects_limit() {
        let mut cx = SymbolicContext::new();
        cx.add_var("a", 4);
        cx.add_var("b", 4);
        let some = cx.enumerate_states(TRUE, 5);
        assert_eq!(some.len(), 5);
    }

    #[test]
    fn enumerate_transitions_decodes_pairs() {
        let mut cx = SymbolicContext::new();
        let a = cx.add_var("a", 2);
        let g = cx.assign_eq(a, 0);
        let u = cx.assign_const(a, 1);
        let t = cx.mgr().and(g, u);
        assert_eq!(cx.enumerate_transitions(t, 10), vec![(vec![0], vec![1])]);
    }

    #[test]
    fn counting_excludes_dead_encodings() {
        let mut cx = SymbolicContext::new();
        let a = cx.add_var("a", 3); // 2 bits, encoding 3 is dead
                                    // Raw TRUE over bits would be 4; count_states must say 3.
        assert_eq!(cx.count_states(TRUE), 3.0);
        // Explicit dead encoding must count as zero.
        let lits = [(cx.cur_level(a, 0), true), (cx.cur_level(a, 1), true)];
        let dead = cx.mgr().cube(&lits);
        assert_eq!(cx.count_states(dead), 0.0);
    }

    #[test]
    fn state_walk_reads_next_bits_as_zero() {
        let mut cx = SymbolicContext::new();
        cx.add_var("a", 3);
        let b = cx.add_var("b", 2);
        let level = cx.next_level(b, 0);
        let next_b = cx.mgr().var(level);
        assert!(cx.enumerate_states(next_b, 100).is_empty());
        let not_next_b = cx.mgr().not(next_b);
        assert_eq!(cx.enumerate_states(not_next_b, 100).len(), 6);
        // A transition walk stops as soon as the visitor breaks.
        let mut seen = Vec::new();
        cx.for_each_transition(TRUE, |from, to| {
            seen.push((from.to_vec(), to.to_vec()));
            if seen.len() == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(
            seen,
            vec![(vec![0, 0], vec![0, 0]), (vec![0, 0], vec![0, 1]), (vec![0, 1], vec![0, 0]),]
        );
    }
}
