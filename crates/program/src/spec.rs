//! Safety specifications (Definition 7) and derived transition predicates.

use ftrepair_bdd::NodeId;
use ftrepair_symbolic::SymbolicContext;

/// A safety specification `Sf = (Sf_bs, Sf_bt)`: a computation refines it iff
/// it never visits a bad state and never executes a bad transition.
#[derive(Clone, Copy, Debug)]
pub struct Safety {
    /// `Sf_bs` — states that must never occur (over current bits).
    pub bad_states: NodeId,
    /// `Sf_bt` — transitions that must never execute (over both copies).
    pub bad_trans: NodeId,
}

impl Safety {
    /// The trivially-satisfiable specification.
    pub fn none() -> Self {
        Safety { bad_states: ftrepair_bdd::FALSE, bad_trans: ftrepair_bdd::FALSE }
    }

    /// Union with another safety specification.
    pub fn union(&self, cx: &mut SymbolicContext, other: &Safety) -> Safety {
        let bad_states = cx.mgr().or(self.bad_states, other.bad_states);
        let bad_trans = cx.mgr().or(self.bad_trans, other.bad_trans);
        Safety { bad_states, bad_trans }
    }

    /// Extend the bad-transition set (used by the lazy-repair outer loop to
    /// outlaw transitions into deadlock states before re-running).
    pub fn with_bad_trans(&self, cx: &mut SymbolicContext, extra: NodeId) -> Safety {
        Safety { bad_states: self.bad_states, bad_trans: cx.mgr().or(self.bad_trans, extra) }
    }
}

/// A liveness specification (Definition 8): a conjunction of leads-to
/// properties `L ↝ T` — every computation that visits `L` eventually
/// visits `T`.
///
/// The repair algorithms guarantee *recovery* liveness (fault-span ↝
/// invariant) by construction; leads-to properties inside the invariant are
/// a property of the original program that
/// [`crate::verify::check_leads_to`] can check on inputs and re-check on
/// repair outputs.
#[derive(Clone, Debug, Default)]
pub struct Liveness {
    /// The `(L, T)` pairs.
    pub leads_to: Vec<(NodeId, NodeId)>,
}

impl Liveness {
    /// No liveness obligations.
    pub fn none() -> Self {
        Liveness { leads_to: Vec::new() }
    }

    /// Add `L ↝ T`.
    pub fn add(&mut self, l: NodeId, t: NodeId) {
        self.leads_to.push((l, t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftrepair_bdd::{FALSE, TRUE};
    use ftrepair_symbolic::SymbolicContext;

    #[test]
    fn none_is_trivial() {
        let s = Safety::none();
        assert_eq!(s.bad_states, FALSE);
        assert_eq!(s.bad_trans, FALSE);
    }

    #[test]
    fn union_merges_both_parts() {
        let mut cx = SymbolicContext::new();
        let x = cx.add_var("x", 2);
        let s1 = Safety { bad_states: cx.assign_eq(x, 0), bad_trans: FALSE };
        let s2 = Safety { bad_states: cx.assign_eq(x, 1), bad_trans: FALSE };
        let u = s1.union(&mut cx, &s2);
        let universe = cx.state_universe();
        assert_eq!(u.bad_states, universe);
    }

    #[test]
    fn with_bad_trans_extends() {
        let mut cx = SymbolicContext::new();
        let _x = cx.add_var("x", 2);
        let extra = cx.transition_cube(&[1], &[0]);
        let s = Safety::none().with_bad_trans(&mut cx, extra);
        assert_eq!(s.bad_trans, extra);
        assert_eq!(s.bad_states, FALSE);
        let _ = TRUE;
    }
}
