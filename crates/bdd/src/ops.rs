//! Boolean connectives: `NOT`, `AND`, `OR`, `XOR`, `ITE`, difference and
//! implication, plus the containment test `implies_cheap`.

use crate::cache::Op;
use crate::manager::Manager;
use crate::node::{NodeId, FALSE, TRUE};

impl Manager {
    /// `¬f`.
    pub fn not(&mut self, f: NodeId) -> NodeId {
        match f {
            FALSE => TRUE,
            TRUE => FALSE,
            _ => {
                if let Some(r) = self.cache_get(Op::Not, f, FALSE, 0) {
                    return r;
                }
                let (level, lo, hi) = (self.level(f), self.lo(f), self.hi(f));
                let nlo = self.not(lo);
                let nhi = self.not(hi);
                let r = self.mk(level, nlo, nhi);
                self.cache_insert(Op::Not, f, FALSE, 0, r);
                // Negation is an involution; caching both directions halves
                // the work of round trips, which the repair fixpoints do a lot.
                self.cache_insert(Op::Not, r, FALSE, 0, f);
                r
            }
        }
    }

    /// `f ∧ g`.
    pub fn and(&mut self, f: NodeId, g: NodeId) -> NodeId {
        // Terminal and idempotence short-circuits.
        if f == g {
            return f;
        }
        match (f, g) {
            (FALSE, _) | (_, FALSE) => return FALSE,
            (TRUE, x) | (x, TRUE) => return x,
            _ => {}
        }
        self.apply(Op::And, f, g)
    }

    /// `f ∨ g`.
    pub fn or(&mut self, f: NodeId, g: NodeId) -> NodeId {
        if f == g {
            return f;
        }
        match (f, g) {
            (TRUE, _) | (_, TRUE) => return TRUE,
            (FALSE, x) | (x, FALSE) => return x,
            _ => {}
        }
        self.apply(Op::Or, f, g)
    }

    /// `f ⊕ g`.
    pub fn xor(&mut self, f: NodeId, g: NodeId) -> NodeId {
        if f == g {
            return FALSE;
        }
        match (f, g) {
            (FALSE, x) | (x, FALSE) => return x,
            (TRUE, x) | (x, TRUE) => return self.not(x),
            _ => {}
        }
        self.apply(Op::Xor, f, g)
    }

    /// `f ∧ ¬g` (set difference when BDDs denote sets).
    pub fn diff(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let ng = self.not(g);
        self.and(f, ng)
    }

    /// `f ⇒ g` as a function (`¬f ∨ g`).
    pub fn imp(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let nf = self.not(f);
        self.or(nf, g)
    }

    /// `f ⇔ g` as a function.
    pub fn iff(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let x = self.xor(f, g);
        self.not(x)
    }

    /// Decide `f ⊆ g` (i.e. `f ⇒ g` is a tautology) without building the
    /// implication BDD: `f ∧ ¬g = ⊥`.
    pub fn leq(&mut self, f: NodeId, g: NodeId) -> bool {
        if f == g || f == FALSE || g == TRUE {
            return true;
        }
        self.diff(f, g) == FALSE
    }

    /// Whether `f` and `g` denote disjoint sets.
    pub fn disjoint(&mut self, f: NodeId, g: NodeId) -> bool {
        self.and(f, g) == FALSE
    }

    /// The shared recursion of `and`, `or` and `xor` (`op` is one of
    /// those three).
    fn apply(&mut self, op: Op, f: NodeId, g: NodeId) -> NodeId {
        // All three ops are commutative: normalize the cache key.
        let (a, b) = if f <= g { (f, g) } else { (g, f) };
        if let Some(r) = self.cache_get(op, a, b, 0) {
            return r;
        }
        let (la, lb) = (self.level(a), self.level(b));
        let level = la.min(lb);
        let (a_lo, a_hi) = if la == level { (self.lo(a), self.hi(a)) } else { (a, a) };
        let (b_lo, b_hi) = if lb == level { (self.lo(b), self.hi(b)) } else { (b, b) };
        let (lo, hi) = match op {
            Op::And => (self.and(a_lo, b_lo), self.and(a_hi, b_hi)),
            Op::Or => (self.or(a_lo, b_lo), self.or(a_hi, b_hi)),
            Op::Xor => (self.xor(a_lo, b_lo), self.xor(a_hi, b_hi)),
            _ => unreachable!("apply takes and, or or xor"),
        };
        let r = self.mk(level, lo, hi);
        self.cache_insert(op, a, b, 0, r);
        r
    }

    /// `if f then g else h`.
    pub fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        // Terminal cases.
        match f {
            TRUE => return g,
            FALSE => return h,
            _ => {}
        }
        if g == h {
            return g;
        }
        if g == TRUE && h == FALSE {
            return f;
        }
        if g == FALSE && h == TRUE {
            return self.not(f);
        }
        if let Some(r) = self.cache_get(Op::Ite, f, g, h.0) {
            return r;
        }
        let level = self.level(f).min(self.level(g)).min(self.level(h));
        let cof = |m: &Manager, x: NodeId, pos: bool| {
            if m.level(x) == level {
                if pos {
                    m.hi(x)
                } else {
                    m.lo(x)
                }
            } else {
                x
            }
        };
        let (f1, g1, h1) = (cof(self, f, true), cof(self, g, true), cof(self, h, true));
        let (f0, g0, h0) = (cof(self, f, false), cof(self, g, false), cof(self, h, false));
        let hi = self.ite(f1, g1, h1);
        let lo = self.ite(f0, g0, h0);
        let r = self.mk(level, lo, hi);
        self.cache_insert(Op::Ite, f, g, h.0, r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Manager;

    /// Evaluate `f` on every assignment of `n` variables and collect the
    /// truth table as a bitset; the oracle all these tests compare against.
    fn table(m: &Manager, f: NodeId, n: u32) -> u64 {
        assert!(n <= 6);
        let mut t = 0u64;
        for bits in 0..(1u64 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            if m.eval(f, &assignment) {
                t |= 1 << bits;
            }
        }
        t
    }

    #[test]
    fn not_involution() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(2);
        let f = m.and(a, b);
        let nf = m.not(f);
        assert_eq!(m.not(nf), f);
        assert_eq!(table(&m, nf, 3), !table(&m, f, 3) & 0xff);
    }

    #[test]
    fn de_morgan() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let and_ab = m.and(a, b);
        let lhs = m.not(and_ab);
        let na = m.not(a);
        let nb = m.not(b);
        let rhs = m.or(na, nb);
        assert_eq!(lhs, rhs); // canonicity: equal functions, equal nodes
    }

    #[test]
    fn xor_via_or_and() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let x1 = m.xor(a, b);
        let or_ab = m.or(a, b);
        let and_ab = m.and(a, b);
        let x2 = m.diff(or_ab, and_ab);
        assert_eq!(x1, x2);
    }

    #[test]
    fn ite_matches_formula() {
        let mut m = Manager::new(3);
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let via_ite = m.ite(a, b, c);
        let t1 = m.and(a, b);
        let na = m.not(a);
        let t2 = m.and(na, c);
        let via_formula = m.or(t1, t2);
        assert_eq!(via_ite, via_formula);
    }

    #[test]
    fn ite_terminal_shortcuts() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        assert_eq!(m.ite(TRUE, a, b), a);
        assert_eq!(m.ite(FALSE, a, b), b);
        assert_eq!(m.ite(a, b, b), b);
        assert_eq!(m.ite(a, TRUE, FALSE), a);
        let na = m.not(a);
        assert_eq!(m.ite(a, FALSE, TRUE), na);
    }

    #[test]
    fn leq_detects_containment() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let aorb = m.or(a, b);
        assert!(m.leq(ab, a));
        assert!(m.leq(a, aorb));
        assert!(!m.leq(aorb, ab));
        assert!(m.leq(FALSE, ab));
        assert!(m.leq(ab, TRUE));
    }

    #[test]
    fn disjointness() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let na = m.not(a);
        assert!(m.disjoint(a, na));
        let b = m.var(1);
        assert!(!m.disjoint(a, b));
    }

    #[test]
    fn imp_and_iff() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let imp = m.imp(a, b);
        // a⇒b is false only at a=1,b=0, i.e. table index 0b01.
        assert_eq!(table(&m, imp, 2), 0b1101);
        let iff = m.iff(a, b);
        assert_eq!(table(&m, iff, 2), 0b1001);
    }

    #[test]
    fn associativity_and_commutativity_by_canonicity() {
        let mut m = Manager::new(3);
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let ab = m.and(a, b);
        let ab_c = m.and(ab, c);
        let bc = m.and(b, c);
        let a_bc = m.and(a, bc);
        assert_eq!(ab_c, a_bc);
        let ba = m.and(b, a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn three_variable_truth_table_cross_check() {
        // (a ∨ ¬b) ⊕ c computed two ways.
        let mut m = Manager::new(3);
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let nb = m.not(b);
        let a_or_nb = m.or(a, nb);
        let f = m.xor(a_or_nb, c);
        for bits in 0..8u32 {
            let va = bits & 1 == 1;
            let vb = bits & 2 == 2;
            let vc = bits & 4 == 4;
            assert_eq!(m.eval(f, &[va, vb, vc]), (va || !vb) ^ vc);
        }
    }
}
