//! Wiring between a repair and its BDD manager's arena governance: the
//! garbage-collection trigger, the node budget, root protection, and the
//! end-of-repair statistics.
//!
//! Only the repair entry points (`lazy_repair_warm` and
//! `cautious_repair_cancellable`) arm the trigger; the standalone building
//! blocks (`add_masking`, `step2`) keep the manager's defaults, so their
//! checkpoints only enforce the budget unless a caller armed the trigger.
//! The checkpoints themselves live at the same safe boundaries where the
//! cancellation token is polled — between BDD operations, with every live
//! local passed as a root.

use crate::options::{RepairOptions, GC_THRESHOLD};
use ftrepair_program::DistributedProgram;
use ftrepair_telemetry::Telemetry;

/// Arm `prog`'s manager for one repair and protect the program's own roots
/// for the run. The trigger is re-armed at its floor: [`GC_THRESHOLD`],
/// unless the caller armed a floor of its own before the repair.
pub(crate) fn configure(prog: &mut DistributedProgram, opts: &RepairOptions) {
    prog.cx.set_node_budget(opts.max_nodes);
    let floor = prog.cx.mgr_ref().gc_floor().unwrap_or(GC_THRESHOLD);
    prog.cx.mgr().set_gc_threshold(floor);
    prog.protect_base();
}

/// Pin a finished repair's output nodes. The caller walks away holding
/// these `NodeId`s, and a *later* repair on the same manager collects
/// garbage at its checkpoints — without a protection count the outcome's
/// nodes would be freed and their slots recycled under the caller's feet.
/// Protection is refcounted and deliberately never released: outcomes are
/// program-lifetime values (verification, serialization, and cross-run
/// comparisons all happen after repair returns).
pub(crate) fn protect_outcome(
    prog: &mut DistributedProgram,
    roots: impl IntoIterator<Item = ftrepair_bdd::NodeId>,
) {
    for n in roots {
        prog.cx.mgr().protect(n);
    }
}

/// Emit the manager's live-node high-water mark as the
/// `bdd.peak_live_nodes` gauge — called once when a traced repair finishes
/// (success, declared failure, or abort), so every run report and
/// `/jobs/<id>` record carries the same number as `ManagerStats`.
pub(crate) fn emit_bdd_tele(tele: &Telemetry, prog: &DistributedProgram) {
    if !tele.enabled() {
        return;
    }
    let peak = prog.cx.mgr_ref().stats().peak_live_nodes;
    tele.max_gauge("bdd.peak_live_nodes", peak as u64);
}
