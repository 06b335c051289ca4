//! # ftrepair-explicit — the explicit-state oracle
//!
//! Everything the symbolic engine does with BDDs, this crate does the
//! pedestrian way: states are enumerated integers (mixed-radix encodings of
//! variable valuations), transition relations are sorted edge lists, and
//! every fixpoint is a worklist loop.
//!
//! Its purpose is **cross-validation**. The repair algorithms are subtle —
//! an off-by-one in a fixpoint or a mis-directed rename produces plausible
//! but wrong programs. On instances small enough to enumerate (a few
//! thousand states) the explicit and symbolic engines must agree *exactly*:
//! on reachability, on `ms`/`mt`, on the repaired invariant and fault-span,
//! and on the final transition relations. Integration tests in
//! `ftrepair-core` and at the workspace root hold them to that.
//!
//! The crate also contains a reference implementation of Add-Masking
//! (Kulkarni & Arora) in [`add_masking`](mod@add_masking), with the same
//! reachable-restriction heuristic switch the paper's Step 1 uses.

pub mod add_masking;
pub mod extract;
pub mod graph;
pub mod group;
pub mod simulate;
pub mod state;
pub mod verify;

pub use add_masking::{add_masking, AddMaskingOptions, ExplicitRepair};
pub use extract::ExplicitProgram;
pub use simulate::{simulate, SimConfig, SimReport};
pub use state::StateSpace;
