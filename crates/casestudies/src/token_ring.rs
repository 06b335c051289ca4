//! Dijkstra's K-state token ring — a second self-stabilization case study
//! (extension beyond the paper's three, in the same family as the chain).
//!
//! `n` processes in a ring, each holding a counter `x_i ∈ {0..k-1}`.
//! Process 0 *holds the token* when `x_0 = x_{n-1}` and fires by
//! incrementing modulo `k`; process `i > 0` holds it when
//! `x_i ≠ x_{i-1}` and fires by copying. The legitimate states are those
//! with exactly one token; transient faults corrupt single counters,
//! creating multiple tokens. For `k ≥ n` the protocol famously
//! self-stabilizes — repair verifies that and adds nothing inside the
//! invariant, while the fault-span covers the entire state space.
//! `examples/specs/token_ring.ftr` is the 3×3 instance, written by hand.

use crate::{compile, join, var};
use ftrepair_program::DistributedProgram;
use ftrepair_symbolic::VarId;
use std::fmt::Write;

/// Build the ring with `n` processes over counters `0..k`. Requires
/// `k ≥ n` (Dijkstra's stabilization condition) and `n ≥ 2`.
pub fn token_ring(n: usize, k: u64) -> (DistributedProgram, Vec<VarId>) {
    let prog = compile(&token_ring_spec(n, k));
    let x = (0..n).map(|i| var(&prog, &format!("x{i}"))).collect();
    (prog, x)
}

/// The `n`-process ring over counters `0..k` as spec text.
pub fn token_ring_spec(n: usize, k: u64) -> String {
    assert!(n >= 2, "a ring needs at least two processes");
    assert!(k >= n as u64, "Dijkstra's theorem needs k ≥ n");
    let last = n - 1;
    let mut s = format!("program token_ring{n}x{k};\n\n");
    for i in 0..n {
        writeln!(s, "var x{i} : 0..{};", k - 1).unwrap();
    }
    // Process 0 increments modulo k when it sees its own value behind it;
    // the others copy their left neighbour when they differ.
    writeln!(s, "\nprocess p0\n  read x{last}, x0;\n  write x0;\nbegin").unwrap();
    for v in 0..k {
        writeln!(s, "  x0 = x{last} & x0 = {v} -> x0 := {};", (v + 1) % k).unwrap();
    }
    s += "end\n";
    for i in 1..n {
        let p = i - 1;
        writeln!(s, "\nprocess p{i}\n  read x{p}, x{i};\n  write x{i};\nbegin").unwrap();
        writeln!(s, "  x{i} != x{p} -> x{i} := x{p};\nend").unwrap();
    }
    // Transient faults: any single counter jumps anywhere.
    let values = (0..k).map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
    s += "\nfault corrupt\nbegin\n";
    for i in 0..n {
        writeln!(s, "  true -> x{i} := {{{values}}};").unwrap();
    }
    s += "end\n\n";
    // Exactly one process holds a token.
    let token = |i: usize, held: bool| match (i, held) {
        (0, true) => format!("x0 = x{last}"),
        (0, false) => format!("x0 != x{last}"),
        (i, true) => format!("x{i} != x{}", i - 1),
        (i, false) => format!("x{i} = x{}", i - 1),
    };
    let only = |i: usize| join(n, " & ", |j| token(j, j == i));
    writeln!(s, "invariant {};", join(n, " | ", |i| format!("({})", only(i)))).unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftrepair_bdd::FALSE;
    use ftrepair_core::{lazy_repair, verify::verify_outcome, RepairOptions};

    #[test]
    fn legitimate_states_have_one_token() {
        let (mut p, _) = token_ring(3, 3);
        // All-equal: only p0 enabled. One step behind: only one copier.
        for s in [[1, 1, 1], [2, 1, 1]] {
            let s = p.cx.state_cube(&s);
            assert!(p.cx.mgr().leq(s, p.invariant));
        }
        // Two tokens: not legitimate.
        let s = p.cx.state_cube(&[2, 1, 2]);
        assert!(p.cx.mgr().disjoint(s, p.invariant));
    }

    #[test]
    fn invariant_is_closed_rotates_and_stabilizes() {
        let (mut p, _) = token_ring(3, 3);
        let t = p.program_trans();
        let inv = p.invariant;
        assert!(ftrepair_program::semantics::is_closed(&mut p.cx, inv, t));
        // The ring never stops: no deadlocks inside the invariant.
        assert_eq!(p.cx.deadlocks(inv, t), FALSE);
        // Dijkstra: from every state the original program reaches the
        // invariant when k ≥ n.
        let universe = p.cx.state_universe();
        assert_eq!(p.cx.backward_reachable(inv, t), universe);
    }

    #[test]
    fn repair_verifies_and_keeps_the_rotation() {
        for (n, k) in [(3, 3), (4, 4)] {
            let (mut p, _) = token_ring(n, k);
            let orig_inside = {
                let t = p.program_trans();
                let inv = p.invariant;
                ftrepair_program::semantics::project(&mut p.cx, t, inv)
            };
            let out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
            assert!(!out.failed);
            let (m, r) = verify_outcome(&mut p, &out);
            assert!(m.ok() && r.ok(), "{m:?} {r:?}");
            // The token rotation inside the invariant survives untouched.
            assert!(p.cx.mgr().leq(orig_inside, out.trans));
        }
    }
}
