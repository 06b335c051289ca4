//! Quantification: `∃ V. f`, `∀ V. f`, and the fused relational product
//! `∃ V. f ∧ g` that image/preimage computation is built on.

use crate::manager::Manager;
use crate::node::{NodeId, FALSE, TRUE};

/// Handle to an interned, sorted set of variable levels
/// (see [`Manager::varset`]). Interning keeps cache keys one word wide and
/// makes set equality O(1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VarSetId(pub(crate) u32);

const Q_EXISTS: u8 = 0;
const Q_FORALL: u8 = 1;

impl Manager {
    /// `∃ vs. f`: erase the variables in `vs`, keeping assignments that have
    /// *some* completion satisfying `f`.
    pub fn exists(&mut self, f: NodeId, vs: VarSetId) -> NodeId {
        self.quantify(f, vs, Q_EXISTS)
    }

    /// `∀ vs. f`: keep assignments all of whose completions satisfy `f`.
    pub fn forall(&mut self, f: NodeId, vs: VarSetId) -> NodeId {
        self.quantify(f, vs, Q_FORALL)
    }

    fn quantify(&mut self, f: NodeId, vs: VarSetId, q: u8) -> NodeId {
        if f.is_terminal() {
            return f;
        }
        let last = match self.varsets[vs.0 as usize].last() {
            Some(&l) => l,
            None => return f,
        };
        self.quantify_rec(f, vs, last, q)
    }

    fn quantify_rec(&mut self, f: NodeId, vs: VarSetId, last: u32, q: u8) -> NodeId {
        let level = self.level(f);
        // Below the last quantified variable nothing changes.
        if f.is_terminal() || level > last {
            return f;
        }
        if let Some(r) = self.caches.quant.get(&(q, f, vs.0)) {
            return r;
        }
        let (lo, hi) = (self.lo(f), self.hi(f));
        let qlo = self.quantify_rec(lo, vs, last, q);
        let qhi = self.quantify_rec(hi, vs, last, q);
        let quantified = self.varsets[vs.0 as usize].binary_search(&level).is_ok();
        let r = if quantified {
            if q == Q_EXISTS {
                self.or(qlo, qhi)
            } else {
                self.and(qlo, qhi)
            }
        } else {
            self.mk(level, qlo, qhi)
        };
        self.caches.quant.insert((q, f, vs.0), r);
        r
    }

    /// The relational product `∃ vs. f ∧ g`, fused so the conjunction is
    /// never materialized. With `f` a state set and `g` a transition
    /// relation this is one image/preimage step.
    pub fn and_exists(&mut self, f: NodeId, g: NodeId, vs: VarSetId) -> NodeId {
        let last = match self.varsets[vs.0 as usize].last() {
            Some(&l) => l,
            None => return self.and(f, g),
        };
        self.and_exists_rec(f, g, vs, last)
    }

    fn and_exists_rec(&mut self, f: NodeId, g: NodeId, vs: VarSetId, last: u32) -> NodeId {
        // Terminal cases of the conjunction.
        if f == FALSE || g == FALSE {
            return FALSE;
        }
        if f == TRUE && g == TRUE {
            return TRUE;
        }
        if f == g {
            return self.quantify_rec(f, vs, last, Q_EXISTS);
        }
        let (lf, lg) = (self.level(f), self.level(g));
        let level = lf.min(lg);
        if level > last {
            // No quantified variable remains in either operand's support.
            return self.and(f, g);
        }
        let (a, b) = if f <= g { (f, g) } else { (g, f) };
        if let Some(r) = self.caches.and_exists.get(&(a, b, vs.0)) {
            return r;
        }
        let (f_lo, f_hi) = if lf == level { (self.lo(f), self.hi(f)) } else { (f, f) };
        let (g_lo, g_hi) = if lg == level { (self.lo(g), self.hi(g)) } else { (g, g) };
        let quantified = self.varsets[vs.0 as usize].binary_search(&level).is_ok();
        let r = if quantified {
            let lo = self.and_exists_rec(f_lo, g_lo, vs, last);
            if lo == TRUE {
                TRUE // early termination: ∨ with ⊤ is ⊤
            } else {
                let hi = self.and_exists_rec(f_hi, g_hi, vs, last);
                self.or(lo, hi)
            }
        } else {
            let lo = self.and_exists_rec(f_lo, g_lo, vs, last);
            let hi = self.and_exists_rec(f_hi, g_hi, vs, last);
            self.mk(level, lo, hi)
        };
        self.caches.and_exists.insert((a, b, vs.0), r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Manager;

    #[test]
    fn exists_erases_variable() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        let vs = m.varset(&[0]);
        // ∃a. a∧b  =  b
        assert_eq!(m.exists(f, vs), b);
    }

    #[test]
    fn forall_requires_both_branches() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.or(a, b);
        let vs = m.varset(&[0]);
        // ∀a. a∨b  =  b
        assert_eq!(m.forall(f, vs), b);
        let g = m.and(a, b);
        // ∀a. a∧b  =  ⊥
        assert_eq!(m.forall(g, vs), FALSE);
    }

    #[test]
    fn exists_empty_set_is_identity() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.xor(a, b);
        let vs = m.varset(&[]);
        assert_eq!(m.exists(f, vs), f);
        assert_eq!(m.forall(f, vs), f);
    }

    #[test]
    fn exists_multiple_vars() {
        let mut m = Manager::new(3);
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let ab = m.and(a, b);
        let f = m.and(ab, c);
        let vs = m.varset(&[0, 2]);
        assert_eq!(m.exists(f, vs), b);
        let all = m.varset(&[0, 1, 2]);
        assert_eq!(m.exists(f, all), TRUE);
        assert_eq!(m.exists(FALSE, all), FALSE);
    }

    #[test]
    fn duality_of_exists_and_forall() {
        // ∀V.f = ¬∃V.¬f on a nontrivial function.
        let mut m = Manager::new(4);
        let (a, b, c, d) = (m.var(0), m.var(1), m.var(2), m.var(3));
        let ab = m.xor(a, b);
        let cd = m.and(c, d);
        let f = m.or(ab, cd);
        let vs = m.varset(&[1, 3]);
        let forall = m.forall(f, vs);
        let nf = m.not(f);
        let ex = m.exists(nf, vs);
        let dual = m.not(ex);
        assert_eq!(forall, dual);
    }

    #[test]
    fn and_exists_equals_unfused() {
        let mut m = Manager::new(4);
        let (a, b, c, d) = (m.var(0), m.var(1), m.var(2), m.var(3));
        let ab = m.or(a, b);
        let f = m.and(ab, c);
        let bd = m.xor(b, d);
        let g = m.or(bd, a);
        let vs = m.varset(&[1, 2]);
        let fused = m.and_exists(f, g, vs);
        let conj = m.and(f, g);
        let unfused = m.exists(conj, vs);
        assert_eq!(fused, unfused);
    }

    #[test]
    fn and_exists_terminal_cases() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let vs = m.varset(&[0]);
        assert_eq!(m.and_exists(FALSE, a, vs), FALSE);
        assert_eq!(m.and_exists(a, FALSE, vs), FALSE);
        assert_eq!(m.and_exists(TRUE, TRUE, vs), TRUE);
        assert_eq!(m.and_exists(a, a, vs), TRUE); // ∃a. a
    }

    #[test]
    fn relational_product_computes_image() {
        // Two-bit counter: x' = x+1 mod 4 encoded over vars
        // x0 (level 0), x0' (level 1), x1 (level 2), x1' (level 3).
        let mut m = Manager::new(4);
        let x0 = m.var(0);
        let x0n = m.var(1);
        let x1 = m.var(2);
        let x1n = m.var(3);
        // x0' = ¬x0 ; x1' = x1 ⊕ x0
        let t0 = m.xor(x0n, x0); // x0' ≠ x0 ⇔ x0'⊕x0 = 1
        let x1x0 = m.xor(x1, x0);
        let t1 = m.iff(x1n, x1x0);
        let trans = m.and(t0, t1);
        // Image of state {x=0} (x0=0, x1=0).
        let s = m.cube(&[(0, false), (2, false)]);
        let current = m.varset(&[0, 2]);
        let imaged = m.and_exists(s, trans, current);
        // Result is over primed vars: should be exactly x0'=1, x1'=0.
        let expected = m.cube(&[(1, true), (3, false)]);
        assert_eq!(imaged, expected);
    }
}
