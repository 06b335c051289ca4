//! # ftrepair-core — lazy repair for addition of fault-tolerance
//!
//! The paper's contribution, implemented symbolically over
//! [`ftrepair_bdd`] / [`ftrepair_symbolic`]:
//!
//! * [`add_masking()`] — **Step 1**: the polynomial Add-Masking algorithm
//!   of Kulkarni & Arora, *ignoring* realizability constraints, optionally
//!   restricted to the states the fault-intolerant program reaches in the
//!   presence of faults (the heuristic that makes lazy repair win —
//!   Section V-A).
//! * [`step2()`] — **Step 2** (Algorithm 2): enforce the read/write
//!   realizability constraints *only by removing transitions* (plus adding
//!   harmless transitions that start outside the fault-span), group by
//!   group, with the exponential-savings `ExpandGroup` optimization
//!   (Section V-B).
//! * [`lazy`] — **Algorithm 1**: the outer loop gluing the two steps,
//!   outlawing transitions into any deadlock created by Step 2 and
//!   re-running until quiescence.
//! * [`cautious`] — the **baseline** of Section IV: the same fixpoints, but
//!   with group closure and group-conflict resolution applied inside
//!   *every* iteration, the cost lazy repair amortizes away.
//! * [`checkpoint`] — mid-repair snapshots offered at the same loop
//!   boundaries the cancellation [`Token`] polls, so a drained, timed-out,
//!   or budget-killed run leaves a resume point a later run can warm-start
//!   from.
//! * [`report`] — the JSONL run-report builder shared by the CLI's
//!   `--metrics-out` and the bench tables; the repair entry points take an
//!   [`ftrepair_telemetry::Telemetry`] handle that feeds it.
//!
//! Every public entry point returns enough of the intermediate state
//! (`ms`, `mt`, invariant, fault-span, per-process relations) for the
//! explicit-state oracle in `ftrepair-explicit` to cross-validate it, and
//! [`verify::verify_outcome`] re-checks every output against the
//! definitions before an experiment reports success.

pub mod add_masking;
mod arena;
pub mod cancel;
pub mod cautious;
pub mod checkpoint;
pub mod lazy;
pub mod options;
pub mod ranking;
pub mod report;
pub mod stats;
pub mod step2;
pub mod verify;
pub mod warm;

pub use add_masking::{add_masking, add_masking_seeded, AddMaskingResult};
pub use cancel::{RepairAborted, Token};
pub use cautious::{cautious_repair, cautious_repair_cancellable, cautious_repair_traced};
pub use checkpoint::{CheckpointImage, CheckpointPolicy, Checkpointer};
pub use lazy::{lazy_repair, lazy_repair_traced, lazy_repair_warm, LazyOutcome};
pub use options::{RepairOptions, GC_THRESHOLD};
pub use report::build_run_report;
pub use stats::RepairStats;
pub use step2::{step2, step2_cancellable, Step2Result};
pub use warm::WarmSeeds;
