//! Cautious-repair parity on the case studies: wherever lazy succeeds the
//! baseline must also produce a verified repair, and on byzantine agreement
//! the two must agree on the invariant exactly (they do more group work in
//! different places, not different repairs).

use ftrepair_casestudies::{byzantine_agreement, stabilizing_chain, tmr, token_ring};
use ftrepair_core::{
    cautious_repair, lazy_repair, verify::verify_outcome, LazyOutcome, RepairOptions,
};
use ftrepair_program::DistributedProgram;

fn check_cautious(p: &mut DistributedProgram) -> LazyOutcome {
    let c = cautious_repair(p, &RepairOptions::default()).unwrap();
    assert!(!c.failed, "cautious failed on {}", p.name);
    let (m, r) = verify_outcome(p, &c);
    assert!(m.ok(), "{}: {m:?}", p.name);
    assert!(r.ok(), "{}: {r:?}", p.name);
    c
}

#[test]
fn cautious_verifies_on_byzantine_and_matches_lazy_invariant() {
    let (mut p, _) = byzantine_agreement(2);
    let c = check_cautious(&mut p);
    let l = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
    assert!(!l.failed);
    assert_eq!(c.invariant, l.invariant);
}

#[test]
fn cautious_verifies_on_chain() {
    let (mut p, _) = stabilizing_chain(4, 3);
    check_cautious(&mut p);
}

#[test]
fn cautious_verifies_on_tmr() {
    let (mut p, _) = tmr(2);
    check_cautious(&mut p);
}

#[test]
fn cautious_verifies_on_token_ring() {
    let (mut p, _) = token_ring(3, 3);
    check_cautious(&mut p);
}

#[test]
fn cautious_pays_more_group_work_than_lazy_on_chain() {
    let (mut p, _) = stabilizing_chain(4, 4);
    let c = cautious_repair(&mut p, &RepairOptions::default()).unwrap();
    let l = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
    assert!(!c.failed && !l.failed);
    // The structural claim of the paper, as a counter: the cautious loop
    // runs the group machinery every iteration.
    assert!(
        c.stats.step2_picks >= l.stats.step2_picks,
        "cautious {} vs lazy {}",
        c.stats.step2_picks,
        l.stats.step2_picks
    );
}
