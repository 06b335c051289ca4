//! Policy-level behavior of the repair options: the terminal-state policy,
//! Step 2 strategy equivalence, and heuristic effects on real case studies.

use ftrepair_casestudies::{byzantine::BOT, byzantine_agreement};
use ftrepair_core::{lazy_repair, verify::verify_outcome, RepairAborted, RepairOptions};

#[test]
fn default_policy_keeps_initial_states_in_the_invariant() {
    // With new-terminal states accepted (default), the repaired BA keeps
    // the all-undecided initial states — a byzantine peer showing a
    // conflicting finalized decision simply stops the blocked process.
    let (mut p, _) = byzantine_agreement(2);
    let out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
    assert!(!out.failed);
    for dgv in 0..2 {
        let init = p.cx.state_cube(&[0, dgv, 0, BOT, 0, 0, BOT, 0]);
        assert!(
            p.cx.mgr().leq(init, out.invariant),
            "initial state with d.g={dgv} must stay legitimate"
        );
    }
    let (m, r) = verify_outcome(&mut p, &out);
    assert!(m.ok() && r.ok());
}

#[test]
fn strict_policy_still_verifies_but_shrinks_more() {
    let (mut p, _) = byzantine_agreement(2);
    let default_out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
    let strict_opts = RepairOptions { allow_new_terminal_inside: false, ..Default::default() };
    let strict_out = lazy_repair(&mut p, &strict_opts).unwrap();
    assert!(!default_out.failed && !strict_out.failed);

    let n_default = p.cx.count_states(default_out.invariant);
    let n_strict = p.cx.count_states(strict_out.invariant);
    assert!(
        n_strict < n_default,
        "strict policy must evict blocked states: {n_strict} vs {n_default}"
    );

    // Both pass the base checks; the strict one additionally passes the
    // strict verifier.
    let (m_default, r_default) = verify_outcome(&mut p, &default_out);
    assert!(m_default.ok() && r_default.ok());
    assert!(!m_default.ok_strict(), "the default policy deliberately accepts new terminal states");
    let (m_strict, r_strict) = verify_outcome(&mut p, &strict_out);
    assert!(m_strict.ok_strict(), "{m_strict:?}");
    assert!(r_strict.ok());
}

#[test]
fn step2_strategies_produce_identical_repairs_on_byzantine() {
    let (mut p, _) = byzantine_agreement(2);
    let closed = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
    let iterative = lazy_repair(&mut p, &RepairOptions::iterative_step2()).unwrap();
    assert!(!closed.failed && !iterative.failed);
    assert_eq!(closed.invariant, iterative.invariant);
    assert_eq!(closed.trans, iterative.trans);
    for (a, b) in closed.processes.iter().zip(&iterative.processes) {
        assert_eq!(a.trans, b.trans, "process {} differs across strategies", a.name);
    }
    // The closed form gets there in far fewer picks.
    assert!(closed.stats.step2_picks < iterative.stats.step2_picks);
}

#[test]
fn heuristic_off_explores_a_larger_span() {
    let (mut p, _) = byzantine_agreement(2);
    let with = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
    let without = lazy_repair(&mut p, &RepairOptions::pure_lazy()).unwrap();
    assert!(!with.failed && !without.failed);
    let span_with = p.cx.count_states(with.span);
    let span_without = p.cx.count_states(without.span);
    assert!(
        span_with <= span_without,
        "the heuristic restricts the span: {span_with} vs {span_without}"
    );
    let (m, r) = verify_outcome(&mut p, &without);
    assert!(m.ok() && r.ok());
}

#[test]
fn tiny_node_budget_aborts_with_resource_exhausted() {
    // A budget far below the program's own BDDs cannot be rescued by any
    // GC: the first governance checkpoint latches exhaustion and the next
    // loop boundary unwinds cleanly — no abort-by-OOM.
    let (mut p, _) = byzantine_agreement(2);
    let starved = RepairOptions { max_nodes: 16, ..Default::default() };
    assert_eq!(lazy_repair(&mut p, &starved).unwrap_err(), RepairAborted::ResourceExhausted);

    // The budget bounds whether a run finishes, never what it computes:
    // the same manager, re-armed unbudgeted, completes and verifies.
    let out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
    assert!(!out.failed);
    let (m, r) = verify_outcome(&mut p, &out);
    assert!(m.ok() && r.ok());
}
