//! The fault-span certificate on every case study: the span each repair
//! returns must certify, lazy and cautious, with the same report as the
//! least-fixpoint oracle. A verifier that silently always fell back would
//! still pass every verdict test, at about 100× the cost on the chains.

use ftrepair_casestudies::{
    byzantine_agreement, byzantine_failstop, stabilizing_chain, tmr, token_ring,
};
use ftrepair_core::{
    cautious_repair, lazy_repair, verify::verify_outcome, LazyOutcome, RepairOptions,
};
use ftrepair_program::verify::verify_masking;
use ftrepair_program::{DistributedProgram, MaskingReport};

fn assert_certifies(p: &mut DistributedProgram, out: &LazyOutcome, mode: &str) {
    assert!(!out.failed, "{} {mode}: repair failed", p.name);
    let (m, r) = verify_outcome(p, out);
    assert!(m.span_certified, "{} {mode}: certificate fell back: {m:?}", p.name);
    assert!(m.ok() && r.ok(), "{} {mode}: {m:?} {r:?}", p.name);
    let orig = p.program_trans();
    let (inv, faults, safety) = (p.invariant, p.faults, p.safety);
    let exact = verify_masking(&mut p.cx, orig, inv, out.trans, out.invariant, faults, &safety);
    assert_eq!(MaskingReport { span_certified: false, ..m }, exact, "{} {mode}", p.name);
}

#[test]
fn every_case_study_certifies_lazy_and_cautious() {
    let factories: [fn() -> DistributedProgram; 7] = [
        || byzantine_agreement(2).0,
        || byzantine_failstop(2).0,
        || stabilizing_chain(5, 4).0,
        || stabilizing_chain(5, 3).0,
        || tmr(2).0,
        || token_ring(3, 3).0,
        || token_ring(4, 5).0,
    ];
    let opts = RepairOptions::default();
    for factory in factories {
        let mut p = factory();
        let out = lazy_repair(&mut p, &opts).unwrap();
        assert_certifies(&mut p, &out, "lazy");

        let mut p = factory();
        let out = cautious_repair(&mut p, &opts).unwrap();
        assert_certifies(&mut p, &out, "cautious");
    }
}
