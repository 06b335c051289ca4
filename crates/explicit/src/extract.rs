//! Extraction of an explicit representation from a symbolic
//! [`DistributedProgram`]: each BDD's states or edges come from one
//! read-only walk over it ([`SymbolicContext::for_each_state`],
//! [`SymbolicContext::for_each_transition`]), encoded as state indices.
//! Only for instances small enough to enumerate.
//!
//! [`SymbolicContext::for_each_state`]: ftrepair_symbolic::SymbolicContext::for_each_state
//! [`SymbolicContext::for_each_transition`]: ftrepair_symbolic::SymbolicContext::for_each_transition

use crate::state::StateSpace;
use ftrepair_bdd::NodeId;
use ftrepair_program::DistributedProgram;
use std::collections::HashSet;
use std::ops::ControlFlow;

/// A fully-enumerated distributed program.
#[derive(Clone, Debug, PartialEq)]
pub struct ExplicitProgram {
    /// State indexing.
    pub space: StateSpace,
    /// Process names, in process order.
    pub proc_names: Vec<String>,
    /// Per process: positions (into the valuation) of readable variables.
    pub reads: Vec<Vec<usize>>,
    /// Per process: positions of writable variables.
    pub writes: Vec<Vec<usize>>,
    /// Per process: transition edges, sorted.
    pub proc_trans: Vec<Vec<(u32, u32)>>,
    /// Fault edges, sorted.
    pub faults: Vec<(u32, u32)>,
    /// Invariant membership.
    pub invariant: HashSet<u32>,
    /// Bad-state membership.
    pub bad_states: HashSet<u32>,
    /// Bad transitions.
    pub bad_trans: HashSet<(u32, u32)>,
}

impl ExplicitProgram {
    /// Enumerate `prog` exhaustively. Panics (via [`StateSpace::new`]) if
    /// the state space is too large to enumerate.
    pub fn from_symbolic(prog: &mut DistributedProgram) -> ExplicitProgram {
        let radices: Vec<u64> = prog.cx.var_ids().iter().map(|&v| prog.cx.info(v).size).collect();
        let space = StateSpace::new(radices);
        let proc_names = prog.processes.iter().map(|p| p.name.clone()).collect();
        let reads =
            prog.processes.iter().map(|p| p.read.iter().map(|v| v.0 as usize).collect()).collect();
        let writes =
            prog.processes.iter().map(|p| p.write.iter().map(|v| v.0 as usize).collect()).collect();
        let parts = prog.partitions();
        let proc_trans = parts.iter().map(|&t| bdd_to_edges(prog, &space, t)).collect::<Vec<_>>();
        let faults = bdd_to_edges(prog, &space, prog.faults);
        let invariant = bdd_to_states(prog, &space, prog.invariant);
        let bad_states = bdd_to_states(prog, &space, prog.safety.bad_states);
        let bad_trans = bdd_to_edges(prog, &space, prog.safety.bad_trans).into_iter().collect();
        ExplicitProgram {
            space,
            proc_names,
            reads,
            writes,
            proc_trans,
            faults,
            invariant,
            bad_states,
            bad_trans,
        }
    }

    /// Union of all process transitions (`δ_P` without stuttering).
    pub fn program_trans(&self) -> Vec<(u32, u32)> {
        let mut all: Vec<(u32, u32)> = self.proc_trans.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Positions of variables process `j` cannot read.
    pub fn unreadable(&self, j: usize) -> Vec<usize> {
        (0..self.space.radices().len()).filter(|p| !self.reads[j].contains(p)).collect()
    }

    /// Positions of variables process `j` cannot write.
    pub fn unwritable(&self, j: usize) -> Vec<usize> {
        (0..self.space.radices().len()).filter(|p| !self.writes[j].contains(p)).collect()
    }
}

/// The states of a state predicate, as indices into `space`.
pub fn bdd_to_states(
    prog: &DistributedProgram,
    space: &StateSpace,
    states: NodeId,
) -> HashSet<u32> {
    let mut out = HashSet::new();
    prog.cx.for_each_state(states, |s| {
        out.insert(space.encode(s));
        ControlFlow::Continue(())
    });
    out
}

/// The edges of a transition predicate between in-domain states, sorted.
pub fn bdd_to_edges(
    prog: &DistributedProgram,
    space: &StateSpace,
    trans: NodeId,
) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    prog.cx.for_each_transition(trans, |from, to| {
        out.push((space.encode(from), space.encode(to)));
        ControlFlow::Continue(())
    });
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftrepair_program::{ProgramBuilder, Update, TRUE};

    fn sample() -> DistributedProgram {
        let mut b = ProgramBuilder::new("sample");
        let x = b.var("x", 3);
        let y = b.var("y", 2);
        b.process("px", &[x, y], &[x]);
        for v in 0..2 {
            let g = b.cx().assign_eq(x, v);
            b.action(g, &[(x, Update::Const(v + 1))]);
        }
        b.process("py", &[y], &[y]);
        let g = b.cx().assign_eq(y, 0);
        b.action(g, &[(y, Update::Const(1))]);
        let inv = b.cx().assign_eq(x, 0);
        b.invariant(inv);
        let fg = b.cx().assign_eq(y, 1);
        b.fault_action(fg, &[(y, Update::Const(0))]);
        b.build()
    }

    #[test]
    fn extraction_counts_match_symbolic() {
        let mut p = sample();
        let e = ExplicitProgram::from_symbolic(&mut p);
        assert_eq!(e.space.num_states(), 6);
        let t = p.program_trans();
        assert_eq!(e.program_trans().len() as f64, p.cx.count_transitions(t));
        assert_eq!(e.faults.len() as f64, p.cx.count_transitions(p.faults));
        assert_eq!(e.invariant.len() as f64, p.cx.count_states(p.invariant));
    }

    #[test]
    fn edges_match_symbolic_enumeration() {
        let mut p = sample();
        let e = ExplicitProgram::from_symbolic(&mut p);
        let t = p.processes[0].trans;
        let sym: Vec<(Vec<u64>, Vec<u64>)> = p.cx.enumerate_transitions(t, 1000);
        let exp: Vec<(Vec<u64>, Vec<u64>)> =
            e.proc_trans[0].iter().map(|&(a, b)| (e.space.decode(a), e.space.decode(b))).collect();
        let mut sym_sorted = sym;
        sym_sorted.sort_unstable();
        let mut exp_sorted = exp;
        exp_sorted.sort_unstable();
        assert_eq!(sym_sorted, exp_sorted);
    }

    #[test]
    fn read_write_positions_extracted() {
        let mut p = sample();
        let e = ExplicitProgram::from_symbolic(&mut p);
        assert_eq!(e.reads[0], vec![0, 1]);
        assert_eq!(e.writes[0], vec![0]);
        assert_eq!(e.reads[1], vec![1]);
        assert_eq!(e.unreadable(1), vec![0]);
        assert_eq!(e.unwritable(0), vec![1]);
    }

    #[test]
    fn empty_predicates_extract_empty() {
        let mut b = ProgramBuilder::new("empty");
        let _x = b.var("x", 2);
        b.invariant(TRUE);
        let mut p = b.build();
        let e = ExplicitProgram::from_symbolic(&mut p);
        assert!(e.faults.is_empty());
        assert!(e.bad_states.is_empty());
        assert!(e.bad_trans.is_empty());
        assert_eq!(e.invariant.len(), 2);
    }
}
