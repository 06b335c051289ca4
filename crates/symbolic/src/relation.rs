//! Image, preimage and reachability fixpoints. Forward reachability for
//! the repair is *chained* over a program's writer parts
//! ([`SymbolicContext::forward_reachable_keep`], parts from
//! [`SymbolicContext::split_by_frames`]): one part's image at a time
//! reaches the same least fixpoint without the breadth-first frontier's
//! intermediate blow-up. Every other image is taken over one monolithic
//! relation: chaining the backward fixpoint over the same parts made
//! Step 1 slower on byzantine agreement in a prototype, and per-process
//! partitioned images (a separate image per part at every breadth-first
//! step) measured 4–6.5× slower on the chain's span and recovery
//! fixpoints.

use crate::context::SymbolicContext;
use ftrepair_bdd::{NodeId, FALSE};

impl SymbolicContext {
    /// One-step image: the states reachable from `states` by one `trans`
    /// step. `∃ cur. states ∧ trans`, renamed back to current bits.
    pub fn image(&mut self, states: NodeId, trans: NodeId) -> NodeId {
        let cur = self.all_cur_varset();
        let next_states = self.mgr().and_exists(states, trans, cur);
        let map = self.map_next_to_cur();
        self.mgr().rename(next_states, map)
    }

    /// One-step preimage: the states from which one `trans` step can reach
    /// `states`. Renames the target to next bits, then `∃ next. trans ∧ …`.
    pub fn preimage(&mut self, states: NodeId, trans: NodeId) -> NodeId {
        let map = self.map_cur_to_next();
        let primed = self.mgr().rename(states, map);
        let next = self.all_next_varset();
        self.mgr().and_exists(primed, trans, next)
    }

    /// Least fixpoint of forward reachability from `init` under `trans`,
    /// breadth-first over the monolithic relation. This is the reference
    /// the exact verifier and the tests use; the repair's reachability is
    /// the chained [`Self::forward_reachable_keep`].
    pub fn forward_reachable(&mut self, init: NodeId, trans: NodeId) -> NodeId {
        let mut reach = init;
        loop {
            let step = self.image(reach, trans);
            let next = self.mgr().or(reach, step);
            if next == reach {
                return reach;
            }
            reach = next;
        }
    }

    /// Least fixpoint of forward reachability from `init` under the union
    /// of `parts`, chained: each sweep applies every part's image in turn
    /// to the set grown so far, and the fixpoint ends with the first sweep
    /// that adds nothing. Returns the reachable set and the number of
    /// sweeps run (the last one included).
    ///
    /// Every step images reachable states under a subset of the union, so
    /// every sweep stays inside the union's least fixpoint; a sweep that
    /// adds nothing leaves a set that contains `init` and is closed under
    /// every part, hence under the union — so the result *is* that least
    /// fixpoint, after no more sweeps than breadth-first iterations. One
    /// part is the breadth-first fixpoint of [`Self::forward_reachable`].
    ///
    /// A governance checkpoint ([`Self::maybe_gc`]) runs before every
    /// image: long reachability runs are where the arena peaks, so the
    /// trigger must get a chance to collect between images. `keep` is
    /// every NodeId the caller still holds across this call — `parts` and
    /// the fixpoint's own state are rooted automatically.
    pub fn forward_reachable_keep(
        &mut self,
        init: NodeId,
        parts: &[NodeId],
        keep: &[NodeId],
    ) -> (NodeId, usize) {
        let mut roots = [keep, parts, &[init]].concat();
        let mut reach = init;
        let mut sweeps = 0;
        loop {
            sweeps += 1;
            let mut grew = false;
            for &part in parts {
                *roots.last_mut().expect("the reached set is a root") = reach;
                self.maybe_gc(&roots);
                let step = self.image(reach, part);
                let next = self.mgr().or(reach, step);
                grew |= next != reach;
                reach = next;
            }
            if !grew {
                return (reach, sweeps);
            }
        }
    }

    /// Split `trans` into one part per frame (`trans ∧ frame`, in the order
    /// of `frames`), then the transitions that no frame covers. The parts
    /// may overlap and their union is `trans`. With the frames of
    /// `unchanged(V ∖ W_j)` over a program's distinct write sets `W_j`,
    /// each part holds the steps one writer could take; the last holds the
    /// steps that write outside every single write set (such as faults on
    /// a variable no process writes).
    pub fn split_by_frames(&mut self, trans: NodeId, frames: &[NodeId]) -> Vec<NodeId> {
        let mut covered = FALSE;
        let mut parts = Vec::with_capacity(frames.len() + 1);
        for &frame in frames {
            parts.push(self.mgr().and(trans, frame));
            covered = self.mgr().or(covered, frame);
        }
        parts.push(self.mgr().diff(trans, covered));
        parts
    }

    /// Least fixpoint of backward reachability: all states that can reach
    /// `target` (including `target` itself).
    pub fn backward_reachable(&mut self, target: NodeId, trans: NodeId) -> NodeId {
        let mut reach = target;
        loop {
            let step = self.preimage(reach, trans);
            let next = self.mgr().or(reach, step);
            if next == reach {
                return reach;
            }
            reach = next;
        }
    }

    /// [`Self::backward_reachable`] with a governance checkpoint per
    /// frontier iteration; see [`Self::forward_reachable_keep`].
    pub fn backward_reachable_keep(
        &mut self,
        target: NodeId,
        trans: NodeId,
        keep: &[NodeId],
    ) -> NodeId {
        let mut reach = target;
        loop {
            let mut roots = keep.to_vec();
            roots.extend([reach, trans]);
            self.maybe_gc(&roots);
            let step = self.preimage(reach, trans);
            let next = self.mgr().or(reach, step);
            if next == reach {
                return reach;
            }
            reach = next;
        }
    }

    /// A state predicate as a *target* constraint over next bits.
    pub fn as_next(&mut self, states: NodeId) -> NodeId {
        let map = self.map_cur_to_next();
        self.mgr().rename(states, map)
    }

    /// States in `states` with **no** outgoing `trans` step (deadlocks
    /// relative to that relation).
    pub fn deadlocks(&mut self, states: NodeId, trans: NodeId) -> NodeId {
        let has_succ = self.preimage_of_anything(trans);
        self.mgr().diff(states, has_succ)
    }

    /// States with at least one outgoing transition in `trans`
    /// (`∃ next. trans`).
    pub fn preimage_of_anything(&mut self, trans: NodeId) -> NodeId {
        let next = self.all_next_varset();
        self.mgr().exists(trans, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SymbolicContext;
    use ftrepair_bdd::{FALSE, TRUE};

    /// 1-variable mod-4 counter: x' = x + 1 mod 4.
    fn counter() -> (SymbolicContext, crate::VarId, NodeId) {
        let mut cx = SymbolicContext::new();
        let x = cx.add_var("x", 4);
        let mut trans = FALSE;
        for v in 0..4 {
            let g = cx.assign_eq(x, v);
            let u = cx.assign_const(x, (v + 1) % 4);
            let t = cx.mgr().and(g, u);
            trans = cx.mgr().or(trans, t);
        }
        (cx, x, trans)
    }

    #[test]
    fn image_of_counter() {
        let (mut cx, x, trans) = counter();
        let s0 = cx.state_cube(&[0]);
        let s1 = cx.image(s0, trans);
        let expected = cx.state_cube(&[1]);
        assert_eq!(s1, expected);
        let _ = x;
    }

    #[test]
    fn preimage_of_counter() {
        let (mut cx, _, trans) = counter();
        let s1 = cx.state_cube(&[1]);
        let pre = cx.preimage(s1, trans);
        let expected = cx.state_cube(&[0]);
        assert_eq!(pre, expected);
    }

    #[test]
    fn preimage_is_adjoint_of_image() {
        // For any S, T: image(S) ∩ X ≠ ∅ ⇔ S ∩ preimage(X) ≠ ∅; spot-check.
        let (mut cx, _, trans) = counter();
        let s = cx.state_cube(&[2]);
        let x = cx.state_cube(&[3]);
        let img = cx.image(s, trans);
        let pre = cx.preimage(x, trans);
        let lhs = !cx.mgr().disjoint(img, x);
        let rhs = !cx.mgr().disjoint(s, pre);
        assert_eq!(lhs, rhs);
        assert!(lhs); // 2 → 3 is a counter step
    }

    #[test]
    fn forward_reachability_saturates() {
        let (mut cx, _, trans) = counter();
        let s0 = cx.state_cube(&[0]);
        let reach = cx.forward_reachable(s0, trans);
        assert_eq!(cx.count_states(reach), 4.0); // full cycle
    }

    #[test]
    fn backward_reachability_on_a_line() {
        // x' = x+1 while x < 3, no wrap: only states ≤ 2 can reach 3.
        let mut cx = SymbolicContext::new();
        let x = cx.add_var("x", 4);
        let mut trans = FALSE;
        for v in 0..3 {
            let g = cx.assign_eq(x, v);
            let u = cx.assign_const(x, v + 1);
            let t = cx.mgr().and(g, u);
            trans = cx.mgr().or(trans, t);
        }
        let s3 = cx.state_cube(&[3]);
        let back = cx.backward_reachable(s3, trans);
        assert_eq!(cx.count_states(back), 4.0); // {0,1,2,3}
        let s0 = cx.state_cube(&[0]);
        assert!(cx.mgr().leq(s0, back));
    }

    #[test]
    fn deadlocks_found() {
        // x' = x+1 while x<3: state 3 is a deadlock.
        let mut cx = SymbolicContext::new();
        let x = cx.add_var("x", 4);
        let mut trans = FALSE;
        for v in 0..3 {
            let g = cx.assign_eq(x, v);
            let u = cx.assign_const(x, v + 1);
            let t = cx.mgr().and(g, u);
            trans = cx.mgr().or(trans, t);
        }
        let universe = cx.state_universe();
        let dl = cx.deadlocks(universe, trans);
        let expected = cx.state_cube(&[3]);
        assert_eq!(dl, expected);
    }

    #[test]
    fn empty_relation_has_empty_images() {
        let (mut cx, _, _) = counter();
        let s = cx.state_cube(&[0]);
        assert_eq!(cx.image(s, FALSE), FALSE);
        assert_eq!(cx.preimage(s, FALSE), FALSE);
        assert_eq!(cx.forward_reachable(s, FALSE), s);
        let _ = TRUE;
    }
}
