//! Variable renaming and cofactoring.
//!
//! Renaming is used for the next-state ↔ current-state swap at the heart of
//! image/preimage computation. With the interleaved variable order used by
//! `ftrepair-symbolic` (`x0, x0', x1, x1', …`) the maps are always
//! order-preserving, so renaming is a single linear rebuild.

use crate::cache::Op;
use crate::manager::Manager;
use crate::node::{NodeId, FALSE, TRUE};

/// Handle to an interned, order-preserving variable map
/// (see [`Manager::varmap`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VarMapId(pub(crate) u32);

impl Manager {
    /// Rename variables of `f` according to the interned map.
    ///
    /// Requires (checked at interning time) that the map preserves the
    /// variable order; target variables must not occur in the support of `f`
    /// unless they are themselves renamed away (checked here in debug builds).
    pub fn rename(&mut self, f: NodeId, map: VarMapId) -> NodeId {
        #[cfg(debug_assertions)]
        {
            let pairs = &self.varmaps[map.0 as usize];
            let sources: crate::hash::FxHashSet<u32> = pairs.iter().map(|p| p.0).collect();
            let targets: Vec<u32> = pairs.iter().map(|p| p.1).collect();
            for v in self.support(f) {
                debug_assert!(
                    !targets.contains(&v) || sources.contains(&v),
                    "rename target {v} already in support"
                );
            }
        }
        self.rename_rec(f, map)
    }

    fn rename_rec(&mut self, f: NodeId, map: VarMapId) -> NodeId {
        if f.is_terminal() {
            return f;
        }
        if let Some(r) = self.cache_get(Op::Rename, f, FALSE, map.0) {
            return r;
        }
        let level = self.level(f);
        let (lo, hi) = (self.lo(f), self.hi(f));
        let rlo = self.rename_rec(lo, map);
        let rhi = self.rename_rec(hi, map);
        let pairs = &self.varmaps[map.0 as usize];
        let new_level = match pairs.binary_search_by_key(&level, |p| p.0) {
            Ok(i) => pairs[i].1,
            Err(_) => level,
        };
        let r = self.mk(new_level, rlo, rhi);
        self.cache_insert(Op::Rename, f, FALSE, map.0, r);
        r
    }

    /// The cofactor of `f` under the partial assignment `literals`
    /// (`(variable, value)` pairs): substitute constants for those variables.
    pub fn restrict(&mut self, f: NodeId, literals: &[(u32, bool)]) -> NodeId {
        let mut lits = literals.to_vec();
        lits.sort_unstable_by_key(|p| p.0);
        // Local memo (keyed by node only) is sound because `lits` is fixed
        // for the whole recursion.
        let mut memo = crate::hash::FxHashMap::default();
        self.restrict_rec(f, &lits, &mut memo)
    }

    fn restrict_rec(
        &mut self,
        f: NodeId,
        lits: &[(u32, bool)],
        memo: &mut crate::hash::FxHashMap<NodeId, NodeId>,
    ) -> NodeId {
        if f.is_terminal() {
            return f;
        }
        let level = self.level(f);
        if let Some(&(last, _)) = lits.last() {
            if level > last {
                return f;
            }
        } else {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let (lo, hi) = (self.lo(f), self.hi(f));
        let r = match lits.binary_search_by_key(&level, |p| p.0) {
            Ok(i) => {
                let child = if lits[i].1 { hi } else { lo };
                self.restrict_rec(child, lits, memo)
            }
            Err(_) => {
                let rlo = self.restrict_rec(lo, lits, memo);
                let rhi = self.restrict_rec(hi, lits, memo);
                self.mk(level, rlo, rhi)
            }
        };
        memo.insert(f, r);
        r
    }

    /// The set of variable indices occurring in `f`, sorted ascending.
    pub fn support(&self, f: NodeId) -> Vec<u32> {
        let mut seen = crate::hash::FxHashSet::default();
        let mut vars = crate::hash::FxHashSet::default();
        let mut stack = vec![f];
        while let Some(g) = stack.pop() {
            if g.is_terminal() || !seen.insert(g) {
                continue;
            }
            vars.insert(self.level(g));
            stack.push(self.lo(g));
            stack.push(self.hi(g));
        }
        let mut out: Vec<u32> = vars.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Evaluate `f` under a total assignment (`assignment[variable]`).
    pub fn eval(&self, f: NodeId, assignment: &[bool]) -> bool {
        let mut cur = f;
        while !cur.is_terminal() {
            let v = self.level(cur) as usize;
            cur = if assignment[v] { self.hi(cur) } else { self.lo(cur) };
        }
        cur == TRUE
    }

    /// The cofactor of `f` by `level := bit`, for an `f` whose top level is
    /// at or below `level`: its `bit` child when `f` branches at `level`,
    /// `f` itself when it does not (a skipped level is a don't-care). One
    /// step of a read-only walk down the levels: it builds no node and
    /// touches no table.
    #[inline]
    pub fn branch(&self, f: NodeId, level: u32, bit: bool) -> NodeId {
        let top = self.level(f);
        debug_assert!(top >= level, "branch at level {level} above the top level {top}");
        match (top == level, bit) {
            (false, _) => f,
            (true, false) => self.lo(f),
            (true, true) => self.hi(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Manager, FALSE, TRUE};

    #[test]
    fn branch_follows_a_level_or_skips_it() {
        let mut m = Manager::new(3);
        let (a, c) = (m.var(0), m.var(2));
        let f = m.and(a, c);
        assert_eq!(m.branch(f, 0, false), FALSE);
        assert_eq!(m.branch(f, 0, true), c);
        // `c` skips level 1: either bit leaves it as it is.
        assert_eq!(m.branch(c, 1, false), c);
        assert_eq!(m.branch(c, 1, true), c);
        assert_eq!(m.branch(c, 2, true), TRUE);
        assert_eq!(m.branch(TRUE, 2, false), TRUE);
        assert_eq!(m.branch(FALSE, 0, true), FALSE);
    }

    #[test]
    fn rename_shifts_levels() {
        let mut m = Manager::new(4);
        let a = m.var(1);
        let b = m.var(3);
        let f = m.and(a, b);
        // Shift next-vars (odd levels) down to current-vars (even levels).
        let map = m.varmap(&[(1, 0), (3, 2)]);
        let g = m.rename(f, map);
        let a0 = m.var(0);
        let b2 = m.var(2);
        let expected = m.and(a0, b2);
        assert_eq!(g, expected);
    }

    #[test]
    fn rename_identity_map() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.xor(a, b);
        let map = m.varmap(&[]);
        assert_eq!(m.rename(f, map), f);
    }

    #[test]
    fn rename_swap_via_disjoint_targets() {
        // Swapping adjacent pairs 0↔1 is not order-preserving directly, but
        // both directions of the interleaved current/next shift are.
        let mut m = Manager::new(4);
        let f0 = m.var(0);
        let f2 = m.var(2);
        let f = m.or(f0, f2);
        let up = m.varmap(&[(0, 1), (2, 3)]);
        let g = m.rename(f, up);
        let v1 = m.var(1);
        let v3 = m.var(3);
        let expected = m.or(v1, v3);
        assert_eq!(g, expected);
        let down = m.varmap(&[(1, 0), (3, 2)]);
        assert_eq!(m.rename(g, down), f);
    }

    #[test]
    fn restrict_cofactors() {
        let mut m = Manager::new(3);
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let bc = m.and(b, c);
        let f = m.or(a, bc);
        assert_eq!(m.restrict(f, &[(0, true)]), crate::TRUE);
        assert_eq!(m.restrict(f, &[(0, false)]), bc);
        assert_eq!(m.restrict(f, &[(0, false), (1, true)]), c);
        assert_eq!(m.restrict(f, &[(0, false), (1, false)]), FALSE);
    }

    #[test]
    fn restrict_irrelevant_var_is_noop() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let c = m.var(2);
        let f = m.and(a, c);
        assert_eq!(m.restrict(f, &[(1, true)]), f);
        assert_eq!(m.restrict(f, &[]), f);
    }

    #[test]
    fn support_lists_exactly_occurring_vars() {
        let mut m = Manager::new(5);
        let a = m.var(0);
        let d = m.var(3);
        let f = m.xor(a, d);
        assert_eq!(m.support(f), vec![0, 3]);
        assert_eq!(m.support(crate::TRUE), Vec::<u32>::new());
        // A variable that cancels out must not appear.
        let b = m.var(1);
        let ab = m.and(a, b);
        let nb = m.not(b);
        let anb = m.and(a, nb);
        let g = m.or(ab, anb); // = a
        assert_eq!(g, a);
        assert_eq!(m.support(g), vec![0]);
    }

    #[test]
    fn eval_walks_paths() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.imp(a, b);
        assert!(m.eval(f, &[false, false]));
        assert!(m.eval(f, &[false, true]));
        assert!(!m.eval(f, &[true, false]));
        assert!(m.eval(f, &[true, true]));
    }
}
