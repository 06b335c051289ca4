//! Extraction by walk against extraction by evaluation: the states and
//! edges `bdd_to_states` and `bdd_to_edges` read off a BDD in one walk
//! must be exactly those the brute-force evaluator finds by evaluating the
//! BDD on every state, or on every state pair — on random predicates and
//! relations over random small contexts, and on every field of the
//! explicit program and the simulation bundle of small specs and chains.

use ftrepair_bdd::{NodeId, SplitMix64, FALSE, TRUE};
use ftrepair_core::{lazy_repair, RepairOptions};
use ftrepair_explicit::extract::{bdd_to_edges, bdd_to_states};
use ftrepair_explicit::{ExplicitProgram, StateSpace};
use ftrepair_program::{DistributedProgram, ProgramBuilder};
use std::collections::HashSet;

/// The largest state space the daemon builds a simulation bundle for.
const SIM_STATE_CAP: u64 = 4096;

/// Each state's bits in the global bit order (bit `g` is level `2g`
/// current and `2g + 1` next), indexed by state.
fn state_bits(prog: &DistributedProgram, space: &StateSpace) -> Vec<Vec<bool>> {
    let vars = prog.cx.var_ids();
    space
        .states()
        .map(|idx| {
            let values = space.decode(idx);
            vars.iter()
                .zip(&values)
                .flat_map(|(&v, &x)| (0..prog.cx.info(v).bits).map(move |k| (x >> k) & 1 == 1))
                .collect()
        })
        .collect()
}

/// Reference: evaluate a state predicate on every state, with every
/// next-state bit false.
fn eval_states(prog: &DistributedProgram, space: &StateSpace, states: NodeId) -> HashSet<u32> {
    let nlevels = prog.cx.mgr_ref().num_vars() as usize;
    let mut out = HashSet::new();
    for (idx, bits) in state_bits(prog, space).iter().enumerate() {
        let mut assignment = vec![false; nlevels];
        for (g, &b) in bits.iter().enumerate() {
            assignment[2 * g] = b;
        }
        if prog.cx.mgr_ref().eval(states, &assignment) {
            out.insert(idx as u32);
        }
    }
    out
}

/// Reference: cofactor a transition predicate on each source state, then
/// evaluate the cofactor on every target state.
fn eval_edges(prog: &mut DistributedProgram, space: &StateSpace, trans: NodeId) -> Vec<(u32, u32)> {
    let nlevels = prog.cx.mgr_ref().num_vars() as usize;
    let all = state_bits(prog, space);
    let mut out = Vec::new();
    let mut assignment = vec![false; nlevels];
    for (from, from_bits) in all.iter().enumerate() {
        let lits: Vec<(u32, bool)> =
            from_bits.iter().enumerate().map(|(g, &b)| (2 * g as u32, b)).collect();
        let row = prog.cx.mgr().restrict(trans, &lits);
        if row == FALSE {
            continue;
        }
        for (to, to_bits) in all.iter().enumerate() {
            for (g, &b) in to_bits.iter().enumerate() {
                assignment[2 * g + 1] = b;
            }
            if prog.cx.mgr_ref().eval(row, &assignment) {
                out.push((from as u32, to as u32));
            }
        }
    }
    out
}

/// Both extractions of one state predicate and one transition predicate.
fn assert_extracts_agree(prog: &mut DistributedProgram, space: &StateSpace, f: NodeId, what: &str) {
    assert_eq!(bdd_to_states(prog, space, f), eval_states(prog, space, f), "states of {what}");
    assert_eq!(bdd_to_edges(prog, space, f), eval_edges(prog, space, f), "edges of {what}");
}

/// A random formula over `depth` levels of and/or/xor of literals on any
/// level, current or next — so it may read next bits as a state predicate,
/// and admit out-of-domain encodings as a relation.
fn random_bdd(prog: &mut DistributedProgram, rng: &mut SplitMix64, depth: u32) -> NodeId {
    let m = prog.cx.mgr();
    if depth == 0 {
        let level = rng.gen_range(u64::from(m.num_vars())) as u32;
        return if rng.gen_range(2) == 0 { m.var(level) } else { m.nvar(level) };
    }
    let a = random_bdd(prog, rng, depth - 1);
    let b = random_bdd(prog, rng, depth - 1);
    let m = prog.cx.mgr();
    match rng.gen_range(3) {
        0 => m.and(a, b),
        1 => m.or(a, b),
        _ => m.xor(a, b),
    }
}

#[test]
fn walk_matches_the_evaluator_on_random_bdds() {
    for seed in 0..200u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut b = ProgramBuilder::new(format!("random{seed}"));
        for i in 0..1 + rng.gen_range(4) {
            b.var(format!("v{i}"), 2 + rng.gen_range(6));
        }
        b.invariant(TRUE);
        let mut prog = b.build();
        let radices = prog.cx.var_ids().iter().map(|&v| prog.cx.info(v).size).collect();
        let space = StateSpace::new(radices);
        assert_extracts_agree(&mut prog, &space, TRUE, "⊤");
        assert_extracts_agree(&mut prog, &space, FALSE, "⊥");
        for case in 0..3 {
            let depth = 1 + rng.gen_range(4) as u32;
            let f = random_bdd(&mut prog, &mut rng, depth);
            assert_extracts_agree(&mut prog, &space, f, &format!("seed {seed} case {case}"));
        }
    }
}

/// Every field of `from_symbolic` and of the simulation bundle (the
/// repaired relation and invariant) equals the evaluator's, and so do the
/// repaired processes and fault-span.
fn assert_program_and_bundle_agree(prog: &mut DistributedProgram) {
    let e = ExplicitProgram::from_symbolic(prog);
    let space = &e.space;
    assert_eq!(space.radices().len(), prog.cx.num_program_vars());
    assert_eq!(e.proc_names, prog.processes.iter().map(|p| p.name.clone()).collect::<Vec<_>>());
    for (j, p) in prog.processes.clone().iter().enumerate() {
        let read: Vec<usize> = p.read.iter().map(|v| v.0 as usize).collect();
        let write: Vec<usize> = p.write.iter().map(|v| v.0 as usize).collect();
        assert_eq!((&e.reads[j], &e.writes[j]), (&read, &write), "{}", p.name);
        assert_eq!(e.proc_trans[j], eval_edges(prog, space, p.trans), "{}", p.name);
    }
    assert_eq!(e.faults, eval_edges(prog, space, prog.faults), "faults");
    assert_eq!(e.invariant, eval_states(prog, space, prog.invariant), "invariant");
    assert_eq!(e.bad_states, eval_states(prog, space, prog.safety.bad_states), "bad states");
    let bad_trans: HashSet<(u32, u32)> =
        eval_edges(prog, space, prog.safety.bad_trans).into_iter().collect();
    assert_eq!(e.bad_trans, bad_trans, "bad transitions");

    let out = lazy_repair(prog, &RepairOptions::default()).expect("unbounded repair");
    assert!(!out.failed, "{} repairs", prog.name);
    assert_eq!(bdd_to_edges(prog, space, out.trans), eval_edges(prog, space, out.trans));
    assert_eq!(bdd_to_states(prog, space, out.invariant), eval_states(prog, space, out.invariant));
    assert_eq!(bdd_to_states(prog, space, out.span), eval_states(prog, space, out.span));
    for p in &out.processes {
        let repaired = bdd_to_edges(prog, space, p.trans);
        assert_eq!(repaired, eval_edges(prog, space, p.trans), "repaired {}", p.name);
    }
}

#[test]
fn walk_matches_the_evaluator_on_every_example_spec_within_the_cap() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs");
    let mut checked = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut prog = ftrepair_lang::load(&text).unwrap();
        let states: u64 = prog.cx.var_ids().iter().map(|&v| prog.cx.info(v).size).product();
        if states <= SIM_STATE_CAP {
            assert_program_and_bundle_agree(&mut prog);
            checked.push(path.file_name().unwrap().to_string_lossy().into_owned());
        }
    }
    checked.sort();
    assert_eq!(
        checked,
        ["stabilizing_chain.ftr", "tmr_voter.ftr", "toggle_pair.ftr", "token_ring.ftr"]
    );
}

#[test]
fn walk_matches_the_evaluator_on_chains_up_to_the_cap() {
    for (cells, values) in [(5, 3), (6, 4)] {
        let (mut prog, _) = ftrepair_casestudies::stabilizing_chain(cells, values);
        assert!(values.pow(cells as u32) <= SIM_STATE_CAP);
        assert_program_and_bundle_agree(&mut prog);
    }
}
