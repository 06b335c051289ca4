//! Image, preimage and reachability fixpoints — monolithic and partitioned.

use crate::context::SymbolicContext;
use ftrepair_bdd::NodeId;

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

    /// Image under a union of partitions, computed partition-wise (keeps
    /// intermediate products small; the natural fit for per-process
    /// transition relations).
    pub fn image_partitioned(&mut self, states: NodeId, parts: &[NodeId]) -> NodeId {
        let mut acc = ftrepair_bdd::FALSE;
        for &t in parts {
            let step = self.image(states, t);
            acc = self.mgr().or(acc, step);
        }
        acc
    }

    /// Preimage under a union of partitions.
    pub fn preimage_partitioned(&mut self, states: NodeId, parts: &[NodeId]) -> NodeId {
        let mut acc = ftrepair_bdd::FALSE;
        for &t in parts {
            let step = self.preimage(states, t);
            acc = self.mgr().or(acc, step);
        }
        acc
    }

    /// Least fixpoint of forward reachability from `init` under `trans`.
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

    /// [`Self::forward_reachable`] with a governance checkpoint
    /// ([`Self::maybe_gc`]) per frontier iteration: long reachability runs
    /// are where the arena peaks, so the trigger must get a chance to
    /// collect *between* image steps. `keep` is every NodeId the caller
    /// still holds across this call — the fixpoint's own state is rooted
    /// automatically.
    pub fn forward_reachable_keep(
        &mut self,
        init: NodeId,
        trans: NodeId,
        keep: &[NodeId],
    ) -> NodeId {
        let mut reach = init;
        loop {
            let mut roots = keep.to_vec();
            roots.extend([reach, trans]);
            self.maybe_gc(&roots);
            let step = self.image(reach, trans);
            let next = self.mgr().or(reach, step);
            if next == reach {
                return reach;
            }
            reach = next;
        }
    }

    /// Forward reachability under partitioned relations.
    pub fn forward_reachable_partitioned(&mut self, init: NodeId, parts: &[NodeId]) -> NodeId {
        let mut reach = init;
        loop {
            let step = self.image_partitioned(reach, parts);
            let next = self.mgr().or(reach, step);
            if next == reach {
                return reach;
            }
            reach = next;
        }
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

    /// Restrict a transition predicate to steps that start in `from`.
    pub fn trans_from(&mut self, trans: NodeId, from: NodeId) -> NodeId {
        self.mgr().and(trans, from)
    }

    /// Restrict a transition predicate to steps that end in `to`.
    pub fn trans_to(&mut self, trans: NodeId, to: NodeId) -> NodeId {
        let map = self.map_cur_to_next();
        let primed = self.mgr().rename(to, map);
        self.mgr().and(trans, primed)
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
    fn partitioned_image_equals_monolithic() {
        // Two independent toggles as two partitions.
        let mut cx = SymbolicContext::new();
        let a = cx.add_var("a", 2);
        let b = cx.add_var("b", 2);
        let mk_toggle = |cx: &mut SymbolicContext, v, other| {
            let mut t = FALSE;
            for val in 0..2u64 {
                let g = cx.assign_eq(v, val);
                let u = cx.assign_const(v, 1 - val);
                let frame = cx.unchanged(other);
                let step = cx.and3(g, u, frame);
                t = cx.mgr().or(t, step);
            }
            t
        };
        let ta = mk_toggle(&mut cx, a, b);
        let tb = mk_toggle(&mut cx, b, a);
        let mono = cx.mgr().or(ta, tb);
        let s = cx.state_cube(&[0, 0]);
        let img_mono = cx.image(s, mono);
        let img_part = cx.image_partitioned(s, &[ta, tb]);
        assert_eq!(img_mono, img_part);
        assert_eq!(cx.count_states(img_part), 2.0); // (1,0) and (0,1)
        let r_mono = cx.forward_reachable(s, mono);
        let r_part = cx.forward_reachable_partitioned(s, &[ta, tb]);
        assert_eq!(r_mono, r_part);
        assert_eq!(cx.count_states(r_part), 4.0);
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
    fn trans_from_and_trans_to_slice_relation() {
        let (mut cx, _, trans) = counter();
        let s1 = cx.state_cube(&[1]);
        let from1 = cx.trans_from(trans, s1);
        assert_eq!(cx.count_transitions(from1), 1.0); // only 1→2
        let to1 = cx.trans_to(trans, s1);
        assert_eq!(cx.count_transitions(to1), 1.0); // only 0→1
        let pairs = cx.enumerate_transitions(to1, 4);
        assert_eq!(pairs, vec![(vec![0], vec![1])]);
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
