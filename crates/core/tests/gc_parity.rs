//! GC parity: the governance checkpoints collect garbage mid-repair, and a
//! collection frees only what no caller will touch again, so it must never
//! change the repair. The production threshold never fires on instances
//! small enough to enumerate; this test arms the trigger far below it so
//! collections fire constantly, then checks exact agreement of the
//! extracted state/edge sets through the `ftrepair-explicit` oracle — a
//! direct check of the checkpoints' rooting discipline.

use ftrepair_core::{cautious_repair, lazy_repair, RepairOptions};
use ftrepair_explicit::{extract, ExplicitProgram};
use ftrepair_program::DistributedProgram;
use std::collections::HashSet;

/// Everything observable about one repair, in explicit form.
#[derive(Debug, PartialEq)]
struct Shape {
    invariant: HashSet<u32>,
    span: HashSet<u32>,
    trans: Vec<(u32, u32)>,
    per_process: Vec<Vec<(u32, u32)>>,
}

/// Run lazy repair (or, with `cautious`, the cautious baseline) on `prog`
/// and enumerate its outputs.
fn shape_of(prog: &mut DistributedProgram, cautious: bool) -> Shape {
    let explicit = ExplicitProgram::from_symbolic(prog);
    let repair = if cautious { cautious_repair } else { lazy_repair };
    let out = repair(prog, &RepairOptions::default()).expect("no deadline configured");
    assert!(!out.failed, "{} unexpectedly failed to repair", prog.name);
    Shape {
        invariant: extract::bdd_to_states(prog, &explicit.space, out.invariant),
        span: extract::bdd_to_states(prog, &explicit.space, out.span),
        trans: extract::bdd_to_edges(prog, &explicit.space, out.trans),
        per_process: out
            .processes
            .iter()
            .map(|p| extract::bdd_to_edges(prog, &explicit.space, p.trans))
            .collect(),
    }
}

#[test]
fn forced_low_threshold_trigger_preserves_the_repair() {
    // Arm the trigger at a toy threshold so it fires constantly during the
    // repair — every checkpoint then collects with the arena at a few
    // hundred nodes. The repair entry keeps a floor the caller armed.
    // Cautious repair too: its initial span comes from the checkpointed
    // reachability fixpoint, so a root missing from its `keep` list would
    // show up here as a different shape. Byzantine agreement has a safety
    // specification, so `ms` and `mt` are not constants there, as they are
    // on the token ring.
    let instances: [fn() -> DistributedProgram; 3] = [
        || ftrepair_casestudies::token_ring(3, 3).0,
        || ftrepair_casestudies::byzantine_agreement(1).0,
        || ftrepair_casestudies::tmr(2).0,
    ];
    for (instance, cautious) in instances.into_iter().flat_map(|i| [(i, false), (i, true)]) {
        let baseline = shape_of(&mut instance(), cautious);

        let mut prog = instance();
        prog.cx.mgr().set_gc_threshold(64);
        let got = shape_of(&mut prog, cautious);

        let stats = prog.cx.mgr_ref().stats();
        assert!(stats.gc_runs > 0, "trigger never fired; threshold too high for this instance");
        assert_eq!(
            got, baseline,
            "mid-repair garbage collection changed the repair of {} (cautious: {cautious})",
            prog.name
        );
    }
}
