//! Wiring between a repair and its BDD manager's arena governance: the
//! garbage-collection trigger, the node budget, root protection, and the
//! per-iteration and end-of-repair statistics.
//!
//! Only the repair entry points (`lazy_repair_warm` and
//! `cautious_repair_cancellable`) arm the trigger; the standalone building
//! blocks (`add_masking`, `step2`) keep the manager's defaults, so their
//! checkpoints only enforce the budget unless a caller armed the trigger.
//! The checkpoints themselves live at the same safe boundaries where the
//! cancellation token is polled — between BDD operations, with every live
//! local passed as a root.

use crate::cancel::{RepairAborted, Token};
use crate::lazy::LazyOutcome;
use crate::options::GC_THRESHOLD;
use crate::stats::RepairStats;
use ftrepair_bdd::NodeId;
use ftrepair_program::DistributedProgram;
use ftrepair_telemetry::{Json, Span, Telemetry};

/// Arm `prog`'s manager for one repair — the token's node budget, and the
/// trigger re-armed at its floor: [`GC_THRESHOLD`], unless the caller armed
/// a floor of its own before the repair — and protect the program's own
/// roots for the run.
pub(crate) fn configure(prog: &mut DistributedProgram, token: &Token) {
    prog.cx.set_node_budget(token.node_budget());
    let floor = prog.cx.mgr_ref().gc_floor().unwrap_or(GC_THRESHOLD);
    prog.cx.mgr().set_gc_threshold(floor);
    prog.protect_base();
}

/// End a repair, whatever happened. A successful outcome's nodes are pinned:
/// the caller walks away holding these `NodeId`s, and a *later* repair on
/// the same manager collects garbage at its checkpoints — without a
/// protection count the outcome's nodes would be freed and their slots
/// recycled under the caller's feet. Protection is refcounted and
/// deliberately never released: outcomes are program-lifetime values
/// (verification, serialization, and cross-run comparisons all happen after
/// repair returns).
///
/// Then the run's tally goes out, once, as counters —
/// `repair.outer_iterations` and `step2.{picks, groups_kept,
/// groups_dropped, expansions}` — and the manager's live-node high-water
/// mark, table sizes and table doublings as gauges — `bdd.peak_live_nodes`,
/// `bdd.cache_entries`, `bdd.cache_slots`, `bdd.unique_slots` and
/// `bdd.table_growths` (near 0 when the job started from the tables of an
/// earlier job on its thread) — on success, declared failure or abort
/// alike, so every run report, `/jobs/<id>` record and `/metrics` scrape
/// carries the same numbers as `RepairStats` and `ManagerStats` (and the
/// run report's `bdd` object).
pub(crate) fn finish(
    prog: &mut DistributedProgram,
    tele: &Telemetry,
    stats: &RepairStats,
    r: Result<LazyOutcome, RepairAborted>,
) -> Result<LazyOutcome, RepairAborted> {
    if let Ok(out) = &r {
        let roots = [out.invariant, out.span, out.trans];
        for n in roots.into_iter().chain(out.processes.iter().map(|p| p.trans)) {
            prog.cx.mgr().protect(n);
        }
    }
    if tele.enabled() {
        tele.add("repair.outer_iterations", stats.outer_iterations as u64);
        tele.add("step2.picks", stats.step2_picks);
        tele.add("step2.groups_kept", stats.groups_kept);
        tele.add("step2.groups_dropped", stats.groups_dropped);
        tele.add("step2.expansions", stats.expansions);
        let s = prog.cx.mgr_ref().stats();
        tele.max_gauge("bdd.peak_live_nodes", s.peak_live_nodes as u64);
        tele.max_gauge("bdd.cache_entries", s.cache_entries as u64);
        tele.max_gauge("bdd.cache_slots", s.cache_slots as u64);
        tele.max_gauge("bdd.unique_slots", s.unique_slots as u64);
        tele.max_gauge("bdd.table_growths", s.table_growths as u64);
    }
    r
}

/// Record one iteration's BDD shape — how big the invariant and fault-span
/// grew and how full the arena is — as peak gauges and a row of the
/// `iterations` series (so run reports of lazy and cautious repair plot
/// the same columns), and as fields of `iter_span` when there is one.
/// Gated: `node_count` walks the DAG, which is not free.
pub(crate) fn sample_shape(
    tele: &Telemetry,
    prog: &DistributedProgram,
    iter: usize,
    invariant: NodeId,
    span: NodeId,
    iter_span: Option<&mut Span<'_>>,
) {
    if !tele.enabled() {
        return;
    }
    let mgr = prog.cx.mgr_ref();
    let inv_nodes = mgr.node_count(invariant) as u64;
    let span_nodes = mgr.node_count(span) as u64;
    let live = mgr.stats().live_nodes as u64;
    if let Some(iter_span) = iter_span {
        iter_span.field("invariant_nodes", Json::from(inv_nodes));
        iter_span.field("span_nodes", Json::from(span_nodes));
        iter_span.field("live_nodes", Json::from(live));
    }
    tele.max_gauge("bdd.peak_invariant_nodes", inv_nodes);
    tele.max_gauge("bdd.peak_span_nodes", span_nodes);
    tele.push_sample(
        "iterations",
        &[
            ("iter", iter as f64),
            ("invariant_nodes", inv_nodes as f64),
            ("span_nodes", span_nodes as f64),
            ("live_nodes", live as f64),
        ],
    );
}
