//! An aborted repair still publishes what it counted: the outer
//! iterations and Step 2's group decisions reach the telemetry snapshot
//! whether the run was cancelled or starved of nodes. The expected values
//! are what per-event counters read for the same runs.

use ftrepair_casestudies::byzantine_agreement;
use ftrepair_core::{
    cautious_repair_cancellable, lazy_repair_warm, CheckpointImage, CheckpointPolicy, Checkpointer,
    RepairAborted, RepairOptions, Token, WarmSeeds,
};
use ftrepair_telemetry::Telemetry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `repair.outer_iterations`, then `step2.{picks, groups_kept,
/// groups_dropped, expansions}`, as the snapshot reads them.
fn counts(tele: &Telemetry) -> [u64; 5] {
    let snap = tele.snapshot();
    [
        "repair.outer_iterations",
        "step2.picks",
        "step2.groups_kept",
        "step2.groups_dropped",
        "step2.expansions",
    ]
    .map(|name| snap.counter(name))
}

/// Lazy repair of BA^3 whose checkpoint sink raises the cancel flag at its
/// `nth` write, so the run unwinds at that offer's boundary.
fn cancel_at_write(nth: u64, opts: &RepairOptions) -> [u64; 5] {
    let flag = Arc::new(AtomicBool::new(false));
    let sink_flag = Arc::clone(&flag);
    let written = AtomicU64::new(0);
    let policy = CheckpointPolicy { every_offers: 1, min_interval: Duration::ZERO, node_delta: 0 };
    let ck = Arc::new(Checkpointer::new(policy, move |_: &CheckpointImage| {
        if written.fetch_add(1, Ordering::Relaxed) + 1 == nth {
            sink_flag.store(true, Ordering::Relaxed);
        }
    }));
    let token = Token::unbounded().with_flag(flag).with_checkpointer(ck);
    let (mut p, _) = byzantine_agreement(3);
    let tele = Telemetry::new();
    let r = lazy_repair_warm(&mut p, opts, &tele, &token, &WarmSeeds::none());
    assert_eq!(r.unwrap_err(), RepairAborted::Cancelled);
    counts(&tele)
}

#[test]
fn a_cancelled_lazy_repair_publishes_its_counts() {
    // The first offer comes inside iteration 1's Step 1, before any group
    // decision; the fourth is the first of iteration 2, after one Step 2.
    assert_eq!(cancel_at_write(1, &RepairOptions::default()), [1, 0, 0, 0, 0]);
    assert_eq!(cancel_at_write(4, &RepairOptions::default()), [2, 3, 3, 3, 0]);
    assert_eq!(cancel_at_write(4, &RepairOptions::iterative_step2()), [2, 3232, 970, 2262, 347]);
}

#[test]
fn a_starved_cautious_repair_publishes_its_counts() {
    let starved = |max_nodes, opts: RepairOptions| {
        let (mut p, _) = byzantine_agreement(3);
        let tele = Telemetry::new();
        let token = Token::unbounded().with_node_budget(max_nodes);
        let r = cautious_repair_cancellable(&mut p, &opts, &tele, &token);
        assert_eq!(r.unwrap_err(), RepairAborted::ResourceExhausted);
        counts(&tele)
    };
    assert_eq!(starved(3250, RepairOptions::default()), [2, 4, 4, 4, 0]);
    assert_eq!(starved(3500, RepairOptions::iterative_step2()), [1, 2061, 690, 1371, 341]);
}
