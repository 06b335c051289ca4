//! Wiring between [`ReorderMode`](crate::options::ReorderMode) and the BDD
//! manager's dynamic-reordering machinery.
//!
//! Only the repair entry points (`lazy_repair_warm` and
//! `cautious_repair_cancellable`) enable reordering; the standalone
//! building blocks (`add_masking`, `step2`) keep the manager's defaults,
//! so their checkpoint calls are no-ops unless a caller armed the trigger. The checkpoints themselves live at the same
//! safe boundaries where the cancellation token is polled — between BDD
//! operations, with every live local passed as a root.

use crate::options::{ReorderMode, RepairOptions, AUTO_REORDER_THRESHOLD};
use ftrepair_program::DistributedProgram;
use ftrepair_telemetry::Telemetry;

/// Configure `prog`'s manager per `opts.reorder` and protect the program's
/// own roots for the run. Returns `true` iff the automatic trigger is armed
/// (callers then guard their protect/unprotect pairs on it).
pub(crate) fn configure(prog: &mut DistributedProgram, opts: &RepairOptions) -> bool {
    // The node budget rides the same checkpoints but is independent of the
    // reorder mode — arm (or clear, with 0) before the mode early-return.
    prog.cx.set_node_budget(opts.max_nodes);
    if opts.reorder == ReorderMode::None {
        return false;
    }
    let auto = opts.reorder == ReorderMode::Auto;
    prog.cx.configure_reorder(if auto { Some(AUTO_REORDER_THRESHOLD) } else { None });
    prog.protect_base();
    auto
}

/// Pin a finished repair's output nodes. The caller walks away holding
/// these `NodeId`s, and a *later* repair on the same manager may sift (and
/// garbage-collect) at its checkpoints — without a protection count the
/// outcome's nodes would be freed and their slots recycled under the
/// caller's feet. Protection is refcounted and deliberately never released:
/// outcomes are program-lifetime values (verification, serialization, and
/// cross-run comparisons all happen after repair returns).
pub(crate) fn protect_outcome(
    prog: &mut DistributedProgram,
    roots: impl IntoIterator<Item = ftrepair_bdd::NodeId>,
) {
    for n in roots {
        prog.cx.mgr().protect(n);
    }
}

/// Emit the manager's reorder/peak statistics into the telemetry registry —
/// called once when a traced repair finishes (success, declared failure, or
/// abort), so every run report carries them.
pub(crate) fn emit_bdd_tele(tele: &Telemetry, prog: &DistributedProgram) {
    if !tele.enabled() {
        return;
    }
    let s = prog.cx.mgr_ref().stats();
    tele.max_gauge("bdd.nodes.peak", s.peak_live_nodes as u64);
    tele.max_gauge("bdd.nodes.post_reorder", s.post_reorder_nodes as u64);
    tele.add("bdd.reorder.runs", s.reorder_runs);
    tele.add("bdd.reorder.swaps", s.reorder_swaps);
    tele.add("bdd.reorder.aborted", s.reorder_aborted);
}
