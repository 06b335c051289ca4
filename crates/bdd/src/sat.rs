//! Counting, witness extraction and cube enumeration.

use crate::hash::FxHashMap;
use crate::manager::Manager;
use crate::node::{NodeId, FALSE, TRUE};

impl Manager {
    /// Number of satisfying assignments over all `num_vars()` variables.
    ///
    /// Returned as `f64` because the repair case studies count state spaces
    /// up to ~10^30; values up to 2^1023 are exact enough for reporting and
    /// exactly representable whenever the count is below 2^53.
    pub fn sat_count(&self, f: NodeId) -> f64 {
        self.sat_count_over(f, self.num_vars())
    }

    /// Satisfying assignments counted over an explicit universe of
    /// `universe_vars` variables (levels `0..universe_vars`); `f`'s support
    /// must be contained in that range.
    pub fn sat_count_over(&self, f: NodeId, universe_vars: u32) -> f64 {
        // fraction(f) = |f| / 2^universe; computed bottom-up so each node is
        // visited once regardless of sharing.
        let mut memo: FxHashMap<NodeId, f64> = FxHashMap::default();
        let frac = self.fraction(f, &mut memo);
        frac * 2f64.powi(universe_vars as i32)
    }

    fn fraction(&self, f: NodeId, memo: &mut FxHashMap<NodeId, f64>) -> f64 {
        match f {
            FALSE => 0.0,
            TRUE => 1.0,
            _ => {
                if let Some(&v) = memo.get(&f) {
                    return v;
                }
                let lo = self.fraction(self.lo(f), memo);
                let hi = self.fraction(self.hi(f), memo);
                let v = (lo + hi) / 2.0;
                memo.insert(f, v);
                v
            }
        }
    }

    /// A deterministic satisfying assignment of `f` restricted to `vars`
    /// (variable indices; missing/don't-care variables default to `false`),
    /// or `None` if `f = ⊥`. Prefers the low branch at every node, so the
    /// witness is deterministic (and the lexicographically smallest).
    pub fn pick_minterm(&self, f: NodeId, vars: &[u32]) -> Option<Vec<bool>> {
        if f == FALSE {
            return None;
        }
        let mut values: FxHashMap<u32, bool> = FxHashMap::default();
        let mut cur = f;
        while !cur.is_terminal() {
            let v = self.level(cur);
            if self.lo(cur) != FALSE {
                values.insert(v, false);
                cur = self.lo(cur);
            } else {
                values.insert(v, true);
                cur = self.hi(cur);
            }
        }
        debug_assert_eq!(cur, TRUE);
        Some(vars.iter().map(|v| values.get(v).copied().unwrap_or(false)).collect())
    }

    /// The BDD of the single path found by [`Manager::pick_minterm`] over the
    /// given variables — i.e. one fully-specified satisfying cube of `f`
    /// (w.r.t. `vars`), as a BDD. Returns `FALSE` if `f = ⊥`.
    pub fn pick_cube_bdd(&mut self, f: NodeId, vars: &[u32]) -> NodeId {
        match self.pick_minterm(f, vars) {
            None => FALSE,
            Some(values) => {
                let lits: Vec<(u32, bool)> =
                    vars.iter().copied().zip(values.iter().copied()).collect();
                self.cube(&lits)
            }
        }
    }

    /// Iterate over the satisfying *paths* (partial cubes) of `f`. Each item
    /// maps variable index → value for the variables tested on that path;
    /// variables absent from the map are don't-cares.
    pub fn cubes<'a>(&'a self, f: NodeId) -> CubeIter<'a> {
        CubeIter { manager: self, stack: if f == FALSE { vec![] } else { vec![(f, Vec::new())] } }
    }
}

/// Depth-first iterator over the satisfying paths of a BDD
/// (see [`Manager::cubes`]).
pub struct CubeIter<'a> {
    manager: &'a Manager,
    stack: Vec<(NodeId, Vec<(u32, bool)>)>,
}

impl<'a> Iterator for CubeIter<'a> {
    type Item = Vec<(u32, bool)>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((f, path)) = self.stack.pop() {
            match f {
                FALSE => continue,
                TRUE => return Some(path),
                _ => {
                    let v = self.manager.level(f);
                    let mut hi_path = path.clone();
                    hi_path.push((v, true));
                    self.stack.push((self.manager.hi(f), hi_path));
                    let mut lo_path = path;
                    lo_path.push((v, false));
                    self.stack.push((self.manager.lo(f), lo_path));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Manager;

    #[test]
    fn sat_count_basics() {
        let mut m = Manager::new(3);
        assert_eq!(m.sat_count(FALSE), 0.0);
        assert_eq!(m.sat_count(TRUE), 8.0);
        let a = m.var(0);
        assert_eq!(m.sat_count(a), 4.0);
        let b = m.var(1);
        let ab = m.and(a, b);
        assert_eq!(m.sat_count(ab), 2.0);
        let aorb = m.or(a, b);
        assert_eq!(m.sat_count(aorb), 6.0);
    }

    #[test]
    fn sat_count_over_smaller_universe() {
        let mut m = Manager::new(8);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.xor(a, b);
        assert_eq!(m.sat_count_over(f, 2), 2.0);
        assert_eq!(m.sat_count(f), 128.0); // 2 * 2^6 don't-cares
    }

    #[test]
    fn sat_count_matches_enumeration() {
        // Random-ish formula, brute-force check.
        let mut m = Manager::new(4);
        let (a, b, c, d) = (m.var(0), m.var(1), m.var(2), m.var(3));
        let ab = m.and(a, b);
        let cd = m.xor(c, d);
        let f = m.or(ab, cd);
        let mut count = 0;
        for bits in 0..16u32 {
            let assignment: Vec<bool> = (0..4).map(|i| (bits >> i) & 1 == 1).collect();
            if m.eval(f, &assignment) {
                count += 1;
            }
        }
        assert_eq!(m.sat_count(f), count as f64);
    }

    #[test]
    fn pick_minterm_satisfies() {
        let mut m = Manager::new(3);
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let nb = m.not(b);
        let anb = m.and(a, nb);
        let f = m.and(anb, c);
        let mt = m.pick_minterm(f, &[0, 1, 2]).unwrap();
        assert_eq!(mt, vec![true, false, true]);
        assert!(m.eval(f, &mt));
        assert_eq!(m.pick_minterm(FALSE, &[0]), None);
    }

    #[test]
    fn pick_minterm_prefers_low_branch() {
        let mut m = Manager::new(2);
        let f = TRUE;
        assert_eq!(m.pick_minterm(f, &[0, 1]).unwrap(), vec![false, false]);
        let a = m.var(0);
        assert_eq!(m.pick_minterm(a, &[0, 1]).unwrap(), vec![true, false]);
    }

    #[test]
    fn pick_cube_bdd_is_single_minterm_inside_f() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let c = m.var(2);
        let f = m.or(a, c);
        let cube = m.pick_cube_bdd(f, &[0, 1, 2]);
        assert_eq!(m.sat_count(cube), 1.0);
        assert!(m.leq(cube, f));
        assert_eq!(m.pick_cube_bdd(FALSE, &[0]), FALSE);
    }

    #[test]
    fn cubes_cover_function_exactly() {
        let mut m = Manager::new(3);
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        // Rebuild f as the union of its cubes.
        let mut rebuilt = FALSE;
        for cube in m.cubes(f).collect::<Vec<_>>() {
            let cb = m.cube(&cube);
            rebuilt = m.or(rebuilt, cb);
        }
        assert_eq!(rebuilt, f);
    }

    #[test]
    fn cubes_of_constants() {
        let m = Manager::new(2);
        assert_eq!(m.cubes(FALSE).count(), 0);
        let paths: Vec<_> = m.cubes(TRUE).collect();
        assert_eq!(paths, vec![Vec::<(u32, bool)>::new()]);
    }

    #[test]
    fn cubes_are_disjoint_paths() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.or(a, b);
        let paths: Vec<_> = m.cubes(f).collect();
        let cubes: Vec<_> = paths.iter().map(|c| m.cube(c)).collect();
        for i in 0..cubes.len() {
            for j in i + 1..cubes.len() {
                let (ci, cj) = (cubes[i], cubes[j]);
                assert!(m.disjoint(ci, cj));
            }
        }
    }
}
