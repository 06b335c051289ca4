//! Edge-valued rank diagrams and the rank-descent product.
//!
//! A *rank* gives every assignment a natural number or ∞. The one built
//! here comes from a sequence of sets: `R(x) = min{k : x ∈ sets[k]}`, ∞ for
//! an assignment in none of them. Step 1's cycle breaking ranks the
//! fault-span this way (the sets are its growing peel and BFS layers) and
//! keeps exactly the recovery steps that lower the rank.
//!
//! A [`RankDiagram`] stores a rank as an edge-valued decision diagram
//! (Ciardo & Siminiceanu, "Using edge-valued decision diagrams for
//! symbolic generation of shortest paths", FMCAD 2002): every edge carries
//! an additive offset, an assignment's value is the sum of the offsets on
//! its path plus the terminal's 0 or ∞, and a node's smaller finite child
//! offset is normalized to 0. Two sub-ranks that differ by a constant then
//! share one node, which is what a distance-like rank is made of; a
//! multi-terminal diagram needs one copy per value instead.
//!
//! [`Manager::rank_descent`] computes `{(x, x') ∈ rel : R(x) < ∞ ∧
//! R(x') < R(x)}` in one recursion over the relation, the rank on the
//! current levels and the rank on the next levels, carrying the difference
//! of the two offsets seen so far. It prunes whole subproblems by the
//! largest finite value each rank node records, and it memoizes locally
//! (exactly, never lossily), so it adds nothing to the computed table.

use crate::hash::FxHashMap;
use crate::manager::Manager;
use crate::node::{NodeId, FALSE, TERMINAL_LEVEL, TRUE};
use crate::rename::VarMapId;
use std::cell::Cell;

/// Index of the terminal with value 0.
const ZERO: u32 = 0;
/// Index of the terminal with value ∞.
const INF: u32 = 1;

/// An edge into a rank node: the node's values, shifted by `offset`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Edge {
    offset: u32,
    node: u32,
}

/// The edge to ∞; its offset is 0 so that every ∞ edge is the same edge.
const INF_EDGE: Edge = Edge { offset: 0, node: INF };

#[derive(Clone, Copy, Debug)]
struct RankNode {
    /// Branching level ([`TERMINAL_LEVEL`] for the terminals).
    var: u32,
    lo: Edge,
    hi: Edge,
    /// Largest finite value of the node's function (0 for the terminals).
    max: u32,
    /// Whether some assignment reaches the ∞ terminal from this node.
    reaches_inf: bool,
}

/// A rank function as an edge-valued decision diagram over a manager's
/// levels; see the module docs. Built by [`Manager::rank_diagram`]. It
/// holds no [`NodeId`], so garbage collection never invalidates it.
#[derive(Debug)]
pub struct RankDiagram {
    /// Hash-consed nodes; indices 0 and 1 are the terminals 0 and ∞.
    nodes: Vec<RankNode>,
    root: Edge,
    /// States the last [`Manager::rank_descent`] over this diagram visited.
    descent_states: Cell<usize>,
}

impl RankDiagram {
    /// Internal nodes, excluding the two terminals.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - 2
    }

    /// Distinct `(relation, source, target, offset difference)` states
    /// the last [`Manager::rank_descent`] over this diagram memoized; 0
    /// before the first.
    pub fn descent_states(&self) -> usize {
        self.descent_states.get()
    }
}

/// Builds a [`RankDiagram`] from a sequence of sets: a local unique table
/// for the nodes and a memo from a normalized tuple of cofactors to the
/// edge representing its rank.
struct Builder<'m> {
    mgr: &'m Manager,
    nodes: Vec<RankNode>,
    unique: FxHashMap<(u32, Edge, Edge), u32>,
    memo: FxHashMap<Vec<NodeId>, Edge>,
}

impl Builder<'_> {
    /// The rank of `sets`. Leading ⊥ entries only shift it, so they become
    /// the offset; entries after the first ⊤ cannot lower the minimum, so
    /// they are dropped. What remains is memoized.
    fn build(&mut self, sets: &[NodeId]) -> Edge {
        let skip = sets.iter().take_while(|&&f| f == FALSE).count();
        let sets = &sets[skip..];
        let shift = |e: Edge| Edge { offset: e.offset + skip as u32, ..e };
        match sets.first() {
            None => return INF_EDGE,
            Some(&TRUE) => return shift(Edge { offset: 0, node: ZERO }),
            Some(_) => {}
        }
        let sets = match sets.iter().position(|&f| f == TRUE) {
            Some(i) => &sets[..=i],
            None => sets,
        };
        if let Some(&e) = self.memo.get(sets) {
            return shift(e);
        }
        let mgr = self.mgr;
        let var = sets.iter().map(|&f| mgr.level(f)).min().expect("nonempty");
        let cofactor = |high: bool| -> Vec<NodeId> {
            sets.iter()
                .map(|&f| match (mgr.level(f) == var, high) {
                    (false, _) => f,
                    (true, false) => mgr.lo(f),
                    (true, true) => mgr.hi(f),
                })
                .collect()
        };
        let (lo_sets, hi_sets) = (cofactor(false), cofactor(true));
        let lo = self.build(&lo_sets);
        let hi = self.build(&hi_sets);
        let e = self.mk(var, lo, hi);
        self.memo.insert(sets.to_vec(), e);
        shift(e)
    }

    /// The canonical edge for `var ? hi : lo`: the smaller finite child
    /// offset moves onto the returned edge, and the node is hash-consed.
    fn mk(&mut self, var: u32, lo: Edge, hi: Edge) -> Edge {
        if lo == hi {
            return lo;
        }
        let finite = [lo, hi].into_iter().filter(|e| e.node != INF);
        let base = finite.map(|e| e.offset).min().expect("two ∞ edges are equal");
        let lower = |e: Edge| if e.node == INF { e } else { Edge { offset: e.offset - base, ..e } };
        let (lo, hi) = (lower(lo), lower(hi));
        let next = self.nodes.len() as u32;
        let node = *self.unique.entry((var, lo, hi)).or_insert(next);
        if node == next {
            let (mut max, mut reaches_inf) = (0, false);
            for e in [lo, hi] {
                let child = &self.nodes[e.node as usize];
                reaches_inf |= child.reaches_inf;
                if e.node != INF {
                    max = max.max(e.offset + child.max);
                }
            }
            self.nodes.push(RankNode { var, lo, hi, max, reaches_inf });
        }
        Edge { offset: base, node }
    }
}

/// What one [`Manager::rank_descent`] recursion reads: the diagram, each
/// node's level on the target side, and the memo.
struct Descent<'r> {
    rank: &'r RankDiagram,
    target_level: Vec<u32>,
    memo: FxHashMap<(NodeId, u32, u32, i64), NodeId>,
}

impl Manager {
    /// The rank `R(x) = min{k : x ∈ sets[k]}` (∞ where no set holds) as
    /// an edge-valued diagram, built in one recursion over the tuple of
    /// the sets' cofactors.
    pub fn rank_diagram(&self, sets: &[NodeId]) -> RankDiagram {
        let terminal = |reaches_inf| RankNode {
            var: TERMINAL_LEVEL,
            lo: INF_EDGE,
            hi: INF_EDGE,
            max: 0,
            reaches_inf,
        };
        let mut b = Builder {
            mgr: self,
            nodes: vec![terminal(false), terminal(true)],
            unique: FxHashMap::default(),
            memo: FxHashMap::default(),
        };
        let root = b.build(sets);
        RankDiagram { nodes: b.nodes, root, descent_states: Cell::new(0) }
    }

    /// `{(x, x') ∈ rel : R(x) < ∞ ∧ R(x') < R(x)}`, where `R` is `rank`
    /// read on its own levels for `x` and through `cur_to_next` for `x'`.
    /// The rank's levels must be sources of the map, as the current-state
    /// levels of a state predicate are.
    pub fn rank_descent(
        &mut self,
        rel: NodeId,
        rank: &RankDiagram,
        cur_to_next: VarMapId,
    ) -> NodeId {
        let pairs = &self.varmaps[cur_to_next.0 as usize];
        let target_level = rank
            .nodes
            .iter()
            .map(|n| match pairs.binary_search_by_key(&n.var, |p| p.0) {
                Ok(i) => pairs[i].1,
                Err(_) => n.var,
            })
            .collect();
        let mut cx = Descent { rank, target_level, memo: FxHashMap::default() };
        // Source and target share the root's offset, so their difference
        // starts at 0.
        let root = rank.root.node;
        let r = self.descent_rec(rel, root, root, 0, &mut cx);
        rank.descent_states.set(cx.memo.len());
        r
    }

    /// The steps of `f` from a state whose rank is `src`'s value to one
    /// whose rank is `d` plus `tgt`'s value, kept when the second is the
    /// smaller.
    fn descent_rec(&mut self, f: NodeId, src: u32, tgt: u32, d: i64, cx: &mut Descent) -> NodeId {
        let (s, t) = (cx.rank.nodes[src as usize], cx.rank.nodes[tgt as usize]);
        // The target's value is at least d, the source's at most its
        // largest finite value: no step descends.
        if f == FALSE || src == INF || tgt == INF || d >= i64::from(s.max) {
            return FALSE;
        }
        // Both finite everywhere, and the target's largest value still lies
        // below the source's smallest, 0: every step descends.
        if !s.reaches_inf && !t.reaches_inf && d + i64::from(t.max) < 0 {
            return f;
        }
        let key = (f, src, tgt, d);
        if let Some(&r) = cx.memo.get(&key) {
            return r;
        }
        let (lf, ls, lt) = (self.level(f), s.var, cx.target_level[tgt as usize]);
        let top = lf.min(ls).min(lt);
        let (f0, f1) = if lf == top { (self.lo(f), self.hi(f)) } else { (f, f) };
        let stay = |n| Edge { offset: 0, node: n };
        let (s0, s1) = if ls == top { (s.lo, s.hi) } else { (stay(src), stay(src)) };
        let (t0, t1) = if lt == top { (t.lo, t.hi) } else { (stay(tgt), stay(tgt)) };
        let step = |se: Edge, te: Edge| d - i64::from(se.offset) + i64::from(te.offset);
        let lo = self.descent_rec(f0, s0.node, t0.node, step(s0, t0), cx);
        let hi = self.descent_rec(f1, s1.node, t1.node, step(s1, t1), cx);
        let r = self.mk(top, lo, hi);
        cx.memo.insert(key, r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::{RankDiagram, INF, ZERO};
    use crate::{Manager, NodeId, FALSE, TRUE};

    impl RankDiagram {
        /// The rank of a total assignment (`assignment[level]`); `None` is ∞.
        fn eval(&self, assignment: &[bool]) -> Option<u32> {
            let mut value = self.root.offset;
            let mut node = self.root.node;
            while node > INF {
                let n = &self.nodes[node as usize];
                let edge = if assignment[n.var as usize] { n.hi } else { n.lo };
                value += edge.offset;
                node = edge.node;
            }
            (node == ZERO).then_some(value)
        }
    }

    /// The set of 2-bit states `x` (bit `g` at level `2g`) where `holds(x)`.
    fn states(m: &mut Manager, holds: impl Fn(usize) -> bool) -> NodeId {
        let mut f = FALSE;
        for x in (0..4usize).filter(|&x| holds(x)) {
            let c = m.cube(&[(0, x & 1 == 1), (2, x >> 1 & 1 == 1)]);
            f = m.or(f, c);
        }
        f
    }

    /// The assignment of the 2-bit state `x` on the current levels.
    fn at(x: usize) -> [bool; 4] {
        [x & 1 == 1, false, x >> 1 & 1 == 1, false]
    }

    #[test]
    fn empty_and_constant_ranks_are_terminals() {
        let m = Manager::new(2);
        let none = m.rank_diagram(&[]);
        assert_eq!((none.node_count(), none.eval(&[false, false])), (0, None));
        let three = m.rank_diagram(&[FALSE, FALSE, FALSE, TRUE, FALSE]);
        assert_eq!((three.node_count(), three.eval(&[true, true])), (0, Some(3)));
    }

    #[test]
    fn states_in_no_set_rank_infinite() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let r = m.rank_diagram(&[FALSE, a]);
        assert_eq!(r.eval(&[true, false]), Some(1));
        assert_eq!(r.eval(&[false, true]), None);
        assert_eq!(r.node_count(), 1);
    }

    /// `R(x) = x_0 + x_1`: both cofactors on `x_0` are the rank `x_1`, one
    /// of them shifted by 1, so they share one node.
    #[test]
    fn ranks_differing_by_a_constant_share_one_node() {
        let mut m = Manager::new(4);
        let none = states(&mut m, |x| x == 0);
        let at_most_one = states(&mut m, |x| x != 0b11);
        let rank = m.rank_diagram(&[none, at_most_one, TRUE]);
        assert_eq!(rank.node_count(), 2, "a node for x_0 over one shared node for x_1");
        for x in 0..4 {
            assert_eq!(rank.eval(&at(x)), Some((x & 1) as u32 + (x >> 1 & 1) as u32));
        }
        // Leading empty sets only shift the rank: same nodes, offset root.
        let shifted = m.rank_diagram(&[FALSE, FALSE, none, at_most_one, TRUE]);
        assert_eq!(shifted.node_count(), rank.node_count());
        for x in 0..4 {
            assert_eq!(shifted.eval(&at(x)), rank.eval(&at(x)).map(|r| r + 2));
        }
    }
}
