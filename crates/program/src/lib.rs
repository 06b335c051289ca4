//! # ftrepair-program — the distributed-program model
//!
//! This crate is the paper's Section II and III in code: finite-state
//! **distributed programs** given as a set of finite-domain variables and a
//! set of **processes**, where each process has
//!
//! * a read set `R_j` and a write set `W_j ⊆ R_j` (Definition 17),
//! * a transition predicate `δ_j`, built from *guarded actions* with
//!   automatic frame conditions (an action changes the variables it names
//!   and leaves every other variable unchanged — interleaving semantics,
//!   Definition 18).
//!
//! On top of the model it implements:
//!
//! * **specifications** (Definition 7): safety as a pair of *bad states* and
//!   *bad transitions*; the liveness side of masking tolerance (recovery) is
//!   handled structurally by the repair algorithms,
//! * **faults** (Definition 12) as just another transition predicate,
//! * the **realizability constraints** of Section III-B: write restrictions,
//!   read-restriction *groups* (`group_j`), and the realizability checks of
//!   Definitions 19/20,
//! * an independent **verifier** for masking fault-tolerance
//!   (Definition 15) used by tests and by the experiment harness to
//!   double-check every repaired program.
//!
//! The three-transition examples of the paper's Figures 3–5 appear verbatim
//! as unit tests in [`realizability`].

pub mod decompile;
pub mod model;
pub mod realizability;
pub mod semantics;
pub mod spec;
pub mod verify;

pub use decompile::{decompile_process, GuardedCommand};
pub use model::{DistributedProgram, Process, ProgramBuilder, Update};
pub use spec::{Liveness, Safety};
pub use verify::{MaskingReport, RealizabilityReport};

pub use ftrepair_bdd::{NodeId, FALSE, TRUE};
pub use ftrepair_symbolic::{SymbolicContext, VarId};
