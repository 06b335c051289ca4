//! # ftrepair-casestudies — the paper's case studies, parameterized
//!
//! Generators for the three workloads of the evaluation section, each
//! printed as guarded-command text (see `ftrepair-lang`) and compiled, so
//! an instance is the same program a user would write as a `.ftr` file:
//!
//! * [`byzantine::byzantine_agreement`] — the classic byzantine-agreement
//!   protocol of Section VI: a general plus `n` non-generals, byzantine
//!   faults affecting at most one of them (**Table I**, lazy vs cautious).
//! * [`byzantine::byzantine_failstop`] — the same protocol with an
//!   additional fail-stop fault class (**Table II**, lazy only — the paper
//!   reports the cautious tool was not applicable at these sizes).
//! * [`chain::stabilizing_chain`] — a chain of `n` cells over a domain of
//!   size `d` that must stabilize to "all cells equal the root" from
//!   arbitrary transient corruption (**Table III**, `Sc^n` rows whose state
//!   counts reach 10^19…10^30 in the paper).
//!
//! Two extension studies go beyond the paper's evaluation:
//! [`tmr::tmr`] (triple modular redundancy with a naive voter) and
//! [`token_ring::token_ring`] (Dijkstra's K-state ring).
//!
//! Each `*_spec` function prints an instance's text, and the function of
//! the study's name compiles it into a ready-to-repair
//! [`ftrepair_program::DistributedProgram`] plus handles to its variables.
//! Tests repair small instances and hold the outputs to the independent
//! masking/realizability verifiers.

pub mod byzantine;
pub mod chain;
pub mod tmr;
pub mod token_ring;

pub use byzantine::{byzantine_agreement, byzantine_failstop, byzantine_spec};
pub use chain::{chain_spec, stabilizing_chain};
pub use tmr::{tmr, tmr_spec};
pub use token_ring::{token_ring, token_ring_spec};

use ftrepair_program::DistributedProgram;
use ftrepair_symbolic::VarId;

/// Compile generated spec text. The generators print only valid text, so
/// a failure here is a bug in a generator, not an input error.
fn compile(text: &str) -> DistributedProgram {
    ftrepair_lang::load(text).unwrap_or_else(|e| panic!("generated spec: {e}\n{text}"))
}

/// The handle of the variable `name` in a compiled instance.
fn var(prog: &DistributedProgram, name: &str) -> VarId {
    prog.cx.find_var(name).unwrap_or_else(|| panic!("generated spec lacks variable {name}"))
}

/// `f(0) sep f(1) sep … f(n - 1)`.
fn join(n: usize, sep: &str, f: impl Fn(usize) -> String) -> String {
    (0..n).map(f).collect::<Vec<_>>().join(sep)
}
