//! Convenience wrapper: verify a repair outcome against both masking
//! fault-tolerance (Definition 15) and realizability (Definitions 19/20).
//!
//! The outcome's fault-span is checked as a certificate
//! ([`verify_masking_certified`]) instead of being recomputed: when it
//! contains the invariant and is closed under the repaired program plus
//! faults, verification costs a few BDD operations; otherwise the report
//! comes from the exact least-fixpoint oracle, with the same verdicts.

use crate::lazy::LazyOutcome;
use ftrepair_program::verify::{verify_masking_certified, verify_realizability};
use ftrepair_program::{DistributedProgram, MaskingReport, RealizabilityReport};

/// Re-check a [`LazyOutcome`] (or anything shaped like one) against the
/// original program, with `outcome.span` as the fault-span certificate.
/// [`MaskingReport::span_certified`] is false when the certificate did not
/// hold and the span was recomputed.
pub fn verify_outcome(
    prog: &mut DistributedProgram,
    outcome: &LazyOutcome,
) -> (MaskingReport, RealizabilityReport) {
    let masking = verify_masking_certified(prog, outcome.trans, outcome.invariant, outcome.span);
    let realizability = verify_realizability(prog, &outcome.processes);
    (masking, realizability)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lazy::lazy_repair;
    use crate::options::RepairOptions;
    use ftrepair_program::{ProgramBuilder, Update};

    #[test]
    fn verify_outcome_flags_tampered_results() {
        let mut b = ProgramBuilder::new("tamper");
        let x = b.var("x", 3);
        b.process("p", &[x], &[x]);
        let g0 = b.cx().assign_eq(x, 0);
        b.action(g0, &[(x, Update::Const(1))]);
        let g1 = b.cx().assign_eq(x, 1);
        b.action(g1, &[(x, Update::Const(0))]);
        let inv = {
            let a = b.cx().assign_eq(x, 0);
            let c = b.cx().assign_eq(x, 1);
            b.cx().mgr().or(a, c)
        };
        b.invariant(inv);
        let fg = b.cx().assign_eq(x, 1);
        b.fault_action(fg, &[(x, Update::Const(2))]);
        let mut p = b.build();
        let mut out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
        assert!(!out.failed);
        let (m, r) = verify_outcome(&mut p, &out);
        assert!(m.ok() && r.ok());

        // Tamper: drop all recovery transitions.
        let x = p.cx.find_var("x").unwrap();
        let s2 = p.cx.assign_eq(x, 2);
        let ns2 = p.cx.mgr().not(s2);
        out.trans = p.cx.mgr().and(out.trans, ns2);
        let (m2, _) = verify_outcome(&mut p, &out);
        assert!(!m2.ok());
        assert!(!m2.recovery_guaranteed);
    }
}
