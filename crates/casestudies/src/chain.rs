//! The stabilizing chain (`Sc^n` in the paper's tables).
//!
//! `n` cells `x0 … x{n-1}` over the domain `{0..d-1}`. Cell 0 is the
//! root and never changes; every other cell copies its left neighbour when
//! they differ. The legitimate states are "all cells equal"; transient
//! faults corrupt any single cell to any value, so the fault-span is the
//! entire state space — which is how the paper's `Sc` rows reach 10^19 to
//! 10^30 reachable states.
//!
//! The original program is already self-stabilizing; what repair adds is
//! the *verified* maximal recovery structure, and what the experiment
//! measures is the cost of the fixpoints (Step 1) versus the group
//! enforcement (Step 2) at these state-space sizes.

use crate::{compile, var};
use ftrepair_program::DistributedProgram;
use ftrepair_symbolic::VarId;
use std::fmt::Write;

/// Build the stabilizing chain with `n` cells over domain `{0..d-1}`.
pub fn stabilizing_chain(n: usize, d: u64) -> (DistributedProgram, Vec<VarId>) {
    let prog = compile(&chain_spec(n, d, None));
    let x = (0..n).map(|i| var(&prog, &format!("x{i}"))).collect();
    (prog, x)
}

/// The stabilizing chain `Sc^n` over cells `0..d` as spec text.
///
/// `edit_cell: Some(c)` adds one action to cell `c` (`1 <= c < n`) whose
/// transitions the cell's copy action already covers: the program, and so
/// its repair, is unchanged, but the text, the content key and the
/// fingerprint move (fingerprint distance 1 from the unedited chain). The
/// program is named `warmchain…` after the warm-start ablation, the first
/// user of these texts: the name is part of the text, and so of the
/// content keys stores already hold.
pub fn chain_spec(n: usize, d: u64, edit_cell: Option<usize>) -> String {
    assert!(n >= 2 && d >= 2, "a chain needs two cells of two values");
    assert!(edit_cell.is_none_or(|c| (1..n).contains(&c)), "edit cell out of range");
    let mut s = String::new();
    let suffix = if edit_cell.is_some() { "e" } else { "" };
    writeln!(s, "program warmchain{n}x{d}{suffix};\n").unwrap();
    for i in 0..n {
        writeln!(s, "var x{i} : 0..{};", d - 1).unwrap();
    }
    for i in 1..n {
        let p = i - 1;
        writeln!(s, "\nprocess c{i}\n  read x{p}, x{i};\n  write x{i};\nbegin").unwrap();
        writeln!(s, "  !(x{i} = x{p}) -> x{i} := x{p};").unwrap();
        if edit_cell == Some(i) {
            writeln!(s, "  (x{i} < x{p}) -> x{i} := x{p};").unwrap();
        }
        writeln!(s, "end").unwrap();
    }
    let choices = (0..d).map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
    writeln!(s, "\nfault transient\nbegin").unwrap();
    for i in 0..n {
        writeln!(s, "  true -> x{i} := {{{choices}}};").unwrap();
    }
    writeln!(s, "end\n").unwrap();
    let inv = (1..n).map(|i| format!("(x{} = x{i})", i - 1)).collect::<Vec<_>>().join(" & ");
    writeln!(s, "invariant {inv};").unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftrepair_core::{lazy_repair, verify::verify_outcome, RepairOptions};

    #[test]
    fn instance_shape() {
        let (mut p, x) = stabilizing_chain(3, 3);
        assert_eq!(p.processes.len(), 2); // root has no process
        assert_eq!(x.len(), 3);
        let universe = p.cx.state_universe();
        assert_eq!(p.cx.count_states(universe), 27.0);
        assert_eq!(p.cx.count_states(p.invariant), 3.0); // all-equal states
    }

    #[test]
    fn faults_reach_everything_and_the_program_already_stabilizes() {
        let (mut p, _) = stabilizing_chain(4, 2);
        let init = p.cx.state_cube(&[0, 0, 0, 0]);
        let t = p.program_trans();
        let combined = p.cx.mgr().or(t, p.faults);
        let universe = p.cx.state_universe();
        assert_eq!(p.cx.forward_reachable(init, combined), universe);
        // Program-only execution reaches the invariant from every state.
        assert_eq!(p.cx.backward_reachable(p.invariant, t), universe);
    }

    #[test]
    fn repair_verifies_and_keeps_the_chain_actions() {
        for d in [2, 3] {
            let (mut p, _) = stabilizing_chain(3, d);
            let orig = p.partitions();
            let out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
            assert!(!out.failed);
            let (m, r) = verify_outcome(&mut p, &out);
            assert!(m.ok() && r.ok(), "{m:?} {r:?}");
            // The copy-left actions survive both steps inside the span:
            // their groups are complete by construction.
            for (j, &t) in orig.iter().enumerate() {
                let from = p.cx.mgr().and(t, out.span);
                let to = p.cx.as_next(out.span);
                let in_span = p.cx.mgr().and(from, to);
                assert!(p.cx.mgr().leq(in_span, out.processes[j].trans), "process {j}");
            }
        }
    }
}
