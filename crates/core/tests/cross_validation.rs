//! Cross-validation: the symbolic Add-Masking of `ftrepair-core` and the
//! explicit-state reference of `ftrepair-explicit` must agree **exactly**
//! (same `ms`, same `mt`, same invariant, same fault-span, same final
//! transition set)
//! on every instance small enough to enumerate — including randomly
//! generated distributed programs.

mod random_programs;

use ftrepair_core::{add_masking, lazy_repair, AddMaskingResult, RepairOptions, Token, WarmSeeds};
use ftrepair_explicit::{
    add_masking as add_masking_explicit, extract, AddMaskingOptions, ExplicitProgram,
};
use ftrepair_program::{DistributedProgram, MaskingReport, ProgramBuilder, Update};
use ftrepair_telemetry::Telemetry;
use random_programs::{build, for_random_programs};
use std::collections::HashSet;

/// Cold, untraced, unbounded symbolic Step 1 on `prog`'s own inputs.
fn step1(prog: &mut DistributedProgram, restrict: bool) -> AddMaskingResult {
    let (inv, safety) = (prog.invariant, prog.safety);
    let (tele, token) = (Telemetry::off(), Token::unbounded());
    add_masking(prog, inv, &safety, restrict, &tele, &token, &WarmSeeds::none()).unwrap()
}

/// Compare a symbolic repair against the explicit reference on `prog`.
fn assert_engines_agree(prog: &mut DistributedProgram, restrict: bool) {
    let explicit = ExplicitProgram::from_symbolic(prog);
    let e = add_masking_explicit(&explicit, AddMaskingOptions { restrict_to_reachable: restrict });

    let s = step1(prog, restrict);

    assert_eq!(s.failed, e.failed, "failure verdicts differ");
    if s.failed {
        return;
    }

    let sym_ms = extract::bdd_to_states(prog, &explicit.space, s.ms);
    assert_eq!(sym_ms, e.ms, "ms differs");

    let sym_mt = extract::bdd_to_edges(prog, &explicit.space, s.mt);
    let states: Vec<u32> = explicit.space.states().collect();
    let mut e_mt: Vec<(u32, u32)> =
        states.iter().flat_map(|&a| states.iter().map(move |&b| (a, b))).collect();
    e_mt.retain(|&(a, b)| e.mt_contains(a, b));
    e_mt.sort_unstable();
    assert_eq!(sym_mt, e_mt, "mt differs");

    let sym_inv = extract::bdd_to_states(prog, &explicit.space, s.invariant);
    assert_eq!(sym_inv, e.invariant, "invariant differs");

    let sym_span = extract::bdd_to_states(prog, &explicit.space, s.span);
    assert_eq!(sym_span, e.span, "fault-span differs");

    let sym_trans = extract::bdd_to_edges(prog, &explicit.space, s.trans);
    assert_eq!(sym_trans, e.trans, "final transition relations differ");
}

#[test]
fn engines_agree_on_recovery_toy() {
    let mut b = ProgramBuilder::new("toy");
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
    assert_engines_agree(&mut p, true);
    assert_engines_agree(&mut p, false);
}

#[test]
fn engines_agree_on_byzantine_n1() {
    let (mut p, _) = ftrepair_casestudies::byzantine_agreement(1);
    assert_engines_agree(&mut p, true);
}

#[test]
fn engines_agree_on_chain_3x2() {
    let (mut p, _) = ftrepair_casestudies::stabilizing_chain(3, 2);
    assert_engines_agree(&mut p, true);
    assert_engines_agree(&mut p, false);
}

#[test]
fn engines_agree_on_chain_3x3() {
    // Non-power-of-two domain: dead encodings must not leak into either
    // engine's result.
    let (mut p, _) = ftrepair_casestudies::stabilizing_chain(3, 3);
    assert_engines_agree(&mut p, true);
}

#[test]
fn engines_agree_on_failstop_n1() {
    let (mut p, _) = ftrepair_casestudies::byzantine_failstop(1);
    assert_engines_agree(&mut p, true);
}

#[test]
fn engines_agree_on_tmr_2() {
    let (mut p, _) = ftrepair_casestudies::tmr(2);
    assert_engines_agree(&mut p, true);
}

#[test]
fn engines_agree_on_token_ring_3x3() {
    let (mut p, _) = ftrepair_casestudies::token_ring(3, 3);
    assert_engines_agree(&mut p, true);
    assert_engines_agree(&mut p, false);
}

#[test]
fn lazy_repair_output_passes_explicit_verifier() {
    // End-to-end: the full lazy pipeline's output, converted to explicit
    // form, satisfies the *explicit* masking verifier too.
    let (mut p, _) = ftrepair_casestudies::byzantine_agreement(1);
    let explicit = ExplicitProgram::from_symbolic(&mut p);
    let out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
    assert!(!out.failed);
    let trans = extract::bdd_to_edges(&p, &explicit.space, out.trans);
    let inv: HashSet<u32> = extract::bdd_to_states(&p, &explicit.space, out.invariant);
    let report = ftrepair_explicit::verify::verify_masking_explicit(&explicit, &trans, &inv);
    assert!(report.ok(), "{report:?}");
    // And each per-process relation is explicitly group-closed.
    for (j, proc_) in out.processes.iter().enumerate() {
        let edges = extract::bdd_to_edges(&p, &explicit.space, proc_.trans);
        assert!(
            ftrepair_explicit::group::is_group_closed(&explicit, j, &edges),
            "process {j} not group-closed"
        );
    }
}

// ---------------------------------------------------------------------
// Randomized cross-validation over the programs of `random_programs`.
// ---------------------------------------------------------------------

#[test]
fn step2_agrees_with_explicit_group_filtering() {
    // Run Step 1 symbolically, then compare the symbolic Step 2 (closed
    // form) per-process outputs against the explicit-state group filter.
    for_random_programs(1, |rp, i| {
        let mut p = build(rp);
        let explicit = ExplicitProgram::from_symbolic(&mut p);
        let r1 = step1(&mut p, true);
        if r1.failed {
            return;
        }
        let (opts, token) = (RepairOptions::default(), Token::unbounded());
        let mut stats = ftrepair_core::RepairStats::default();
        let r2 =
            ftrepair_core::step2(&mut p, r1.trans, r1.span, &opts, &mut stats, &token).unwrap();

        let trans_edges = extract::bdd_to_edges(&p, &explicit.space, r1.trans);
        let span_states = extract::bdd_to_states(&p, &explicit.space, r1.span);
        let expected =
            ftrepair_explicit::group::step2_explicit(&explicit, &trans_edges, &span_states);
        for (j, proc_) in r2.processes.iter().enumerate() {
            let got = extract::bdd_to_edges(&p, &explicit.space, proc_.trans);
            assert_eq!(&got, &expected[j], "case {i}, process {j} differs");
        }
    });
}

#[test]
fn symbolic_group_matches_explicit_group() {
    // The group of each process's whole original relation, both ways.
    for_random_programs(2, |rp, i| {
        let mut p = build(rp);
        let explicit = ExplicitProgram::from_symbolic(&mut p);
        for j in 0..p.processes.len() {
            let unread = p.unreadable(j);
            let t = p.processes[j].trans;
            let g = ftrepair_program::realizability::group(&mut p.cx, &unread, t);
            let got = extract::bdd_to_edges(&p, &explicit.space, g);
            let expected =
                ftrepair_explicit::group::group_of_set(&explicit, j, &explicit.proc_trans[j]);
            assert_eq!(got, expected, "case {i}, process {j} group differs");
        }
    });
}

#[test]
fn engines_agree_on_random_programs() {
    for_random_programs(3, |rp, _| {
        let mut p = build(rp);
        assert_engines_agree(&mut p, true);
        let mut p2 = build(rp);
        assert_engines_agree(&mut p2, false);
    });
}

#[test]
fn lazy_outputs_always_verify_or_fail() {
    // Whatever the input, lazy repair either declares failure or produces a
    // program passing both independent verifiers.
    for_random_programs(4, |rp, i| {
        let mut p = build(rp);
        let out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
        if !out.failed {
            let (m, r) = ftrepair_core::verify::verify_outcome(&mut p, &out);
            assert!(m.ok(), "case {i} masking: {m:?}");
            assert!(r.ok(), "case {i} realizability: {r:?}");
            assert_span_certifies(&mut p, &out, m, i);
        }
    });
}

#[test]
fn cautious_outputs_always_verify_or_fail() {
    for_random_programs(5, |rp, i| {
        let mut p = build(rp);
        let out = ftrepair_core::cautious_repair(&mut p, &RepairOptions::default()).unwrap();
        if !out.failed {
            let (m, r) = ftrepair_core::verify::verify_outcome(&mut p, &out);
            assert!(m.ok(), "case {i} masking: {m:?}");
            assert!(r.ok(), "case {i} realizability: {r:?}");
            assert_span_certifies(&mut p, &out, m, i);
        }
    });
}

/// `m` — `verify_outcome`'s report on `out` — must come from the span
/// certificate and equal the least-fixpoint oracle's on every check field.
fn assert_span_certifies(
    p: &mut DistributedProgram,
    out: &ftrepair_core::LazyOutcome,
    m: MaskingReport,
    i: u64,
) {
    assert!(m.span_certified, "case {i}: certificate fell back: {m:?}");
    let orig = p.program_trans();
    let (inv, faults, safety) = (p.invariant, p.faults, p.safety);
    let exact = ftrepair_program::verify::verify_masking(
        &mut p.cx,
        orig,
        inv,
        out.trans,
        out.invariant,
        faults,
        &safety,
    );
    assert_eq!(MaskingReport { span_certified: false, ..m }, exact, "case {i}");
}
