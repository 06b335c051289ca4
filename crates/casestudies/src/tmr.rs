//! Triple modular redundancy (TMR) — the classic FTSyn-family extension
//! case study.
//!
//! Replicas latch an input bit; a naive voter copies replica 0 once all
//! replicas are latched. A fault may corrupt **one** replica. The
//! fault-intolerant voter then publishes garbage; repair must (a) stop the
//! voter from trusting a minority replica and (b) synthesize replica
//! recovery — all under the voter's inability to read the input or the
//! corruption flag. `examples/specs/tmr_voter.ftr` is the instance with
//! three replicas, written by hand.

use crate::{compile, join, var};
use ftrepair_program::DistributedProgram;
use ftrepair_symbolic::VarId;
use std::fmt::Write;

/// "Not yet latched" marker for replicas and the output.
pub const EMPTY: u64 = 2;

/// Variable handles of a TMR instance.
#[derive(Clone, Debug)]
pub struct TmrVars {
    /// The input bit.
    pub input: VarId,
    /// The replicas (`{0, 1, EMPTY}`).
    pub replicas: Vec<VarId>,
    /// The output (`{0, 1, EMPTY}`).
    pub output: VarId,
    /// Has the (single) corruption fault fired yet?
    pub corrupted: VarId,
}

/// Build a TMR instance with `n` replicas (the classic setting is 3).
pub fn tmr(n: usize) -> (DistributedProgram, TmrVars) {
    let prog = compile(&tmr_spec(n));
    let vars = TmrVars {
        input: var(&prog, "i"),
        replicas: (0..n).map(|j| var(&prog, &format!("r{j}"))).collect(),
        output: var(&prog, "o"),
        corrupted: var(&prog, "c"),
    };
    (prog, vars)
}

/// TMR with `n` replicas as spec text.
pub fn tmr_spec(n: usize) -> String {
    assert!(n >= 2, "redundancy needs at least two replicas");
    let mut s = format!("program tmr{n};\n\nvar i : boolean;\n");
    for j in 0..n {
        writeln!(s, "var r{j} : 0..2;").unwrap();
    }
    s += "var o : 0..2;\nvar c : boolean;\n";
    // Replicas latch the input once; the voter copies replica 0 once
    // everyone latched.
    for j in 0..n {
        writeln!(s, "\nprocess p{j}\n  read i, r{j};\n  write r{j};\nbegin").unwrap();
        writeln!(s, "  r{j} = 2 -> r{j} := i;\nend").unwrap();
    }
    let replicas = join(n, ", ", |j| format!("r{j}"));
    let latched = join(n, "", |j| format!(" & r{j} != 2"));
    writeln!(s, "\nprocess voter\n  read {replicas}, o;\n  write o;\nbegin").unwrap();
    writeln!(s, "  o = 2{latched} -> o := r0;\nend").unwrap();
    // Faults: corrupt any one replica, once.
    s += "\nfault corrupt\nbegin\n";
    for j in 0..n {
        writeln!(s, "  c = 0 -> r{j} := {{0, 1}}, c := 1;").unwrap();
    }
    s += "end\n\n";
    // Every replica and the output are unlatched or correct; a wrong
    // output is bad, and a decided output never changes.
    let correct = join(n, " & ", |j| format!("(r{j} = 2 | r{j} = i)"));
    writeln!(s, "invariant {correct} & (o = 2 | o = i);").unwrap();
    s += "badstates !(o = 2 | o = i);\nbadtrans o != 2 & o' != o;\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftrepair_core::{lazy_repair, verify::verify_outcome, RepairOptions};

    #[test]
    fn instance_shape() {
        let (mut p, vars) = tmr(3);
        assert_eq!(p.processes.len(), 4); // 3 replicas + voter
        assert_eq!(vars.replicas.len(), 3);
        let u = p.cx.state_universe();
        // 2 · 3³ · 3 · 2 = 324.
        assert_eq!(p.cx.count_states(u), 324.0);
    }

    #[test]
    fn naive_voter_violates_safety_under_faults() {
        // Unrepaired: corrupt r0 before the voter runs → wrong output.
        let (mut p, _) = tmr(3);
        let t = p.program_trans();
        let combined = p.cx.mgr().or(t, p.faults);
        let inv = p.invariant;
        let reach = p.cx.forward_reachable(inv, combined);
        let bad = p.cx.mgr().and(reach, p.safety.bad_states);
        assert_ne!(bad, ftrepair_bdd::FALSE, "the intolerant voter must be unsafe");
    }

    #[test]
    fn repaired_voter_does_not_trust_a_minority_replica() {
        let (mut p, vars) = tmr(3);
        let out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
        assert!(!out.failed);
        let (m, r) = verify_outcome(&mut p, &out);
        assert!(m.ok() && r.ok(), "{m:?} {r:?}");
        // State: i=0, replicas (1,0,0) — r0 corrupted — o undecided, c=1.
        let s = p.cx.state_cube(&[0, 1, 0, 0, EMPTY, 1]);
        assert!(p.cx.mgr().leq(s, out.span), "corruption state must be in the span");
        // The voter (process index 3) must not publish r0's value 1 here.
        let publish_wrong = {
            let o1 = p.cx.assign_const(vars.output, 1);
            let step = p.cx.mgr().and(s, o1);
            p.cx.mgr().and(step, out.processes[3].trans)
        };
        assert_eq!(publish_wrong, ftrepair_bdd::FALSE, "voter still trusts r0");
    }

    #[test]
    fn two_replicas_also_repairable() {
        // With n=2 there is no majority, but replica recovery (p_j re-reads
        // the input) still yields a masking-tolerant system.
        let (mut p, _) = tmr(2);
        let out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
        assert!(!out.failed);
        let (m, r) = verify_outcome(&mut p, &out);
        assert!(m.ok() && r.ok(), "{m:?} {r:?}");
    }
}
