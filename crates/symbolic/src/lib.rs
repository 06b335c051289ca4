//! # ftrepair-symbolic — finite-domain symbolic state spaces
//!
//! The repair algorithms reason about distributed programs whose variables
//! have small finite domains (a decision in `{0, 1, ⊥}`, a byzantine flag in
//! `{false, true}`, a chain cell in `{0..d}`). This crate maps such programs
//! onto the boolean world of [`ftrepair_bdd`]:
//!
//! * each program variable of domain size `d` gets `⌈log₂ d⌉` boolean bits,
//! * every bit exists in a **current** and a **next** copy, interleaved in
//!   the BDD variable order (`x₀ x₀' x₁ x₁' …`) so that the `next → current`
//!   rename is order-preserving and transition relations stay small,
//! * a *state predicate* is a BDD over current bits; a *transition
//!   predicate* is a BDD over current and next bits,
//! * non-power-of-two domains are handled by conjoining **domain
//!   constraints** (`v < d`) into every universe.
//!
//! On top of the encoding it provides the operations every fixpoint in the
//! repair algorithms is made of: `image`, `preimage`, forward reachability
//! chained over a relation's parts (and breadth-first over one monolithic
//! relation, as a reference), backward reachability over one monolithic
//! relation, and state counting/enumeration used by tests and the
//! experiment harness.
//!
//! ```
//! use ftrepair_symbolic::SymbolicContext;
//!
//! // A 2-cell system, each cell in {0,1,2}.
//! let mut cx = SymbolicContext::new();
//! let a = cx.add_var("a", 3);
//! let b = cx.add_var("b", 3);
//!
//! // Transition: if a == b then a := a+1 mod 3 (b unchanged).
//! let mut trans = ftrepair_bdd::FALSE;
//! for v in 0..3 {
//!     let guard = cx.both_eq(a, b, v);
//!     let update = cx.assign_const(a, (v + 1) % 3);
//!     let frame = cx.unchanged(b);
//!     let guarded = cx.mgr().and(guard, update);
//!     let t = cx.mgr().and(guarded, frame);
//!     trans = cx.mgr().or(trans, t);
//! }
//!
//! let init = cx.state_cube(&[0, 0]);
//! let reach = cx.forward_reachable(init, trans);
//! assert_eq!(cx.count_states(reach), 2.0); // (0,0) → (1,0), then stuck
//! ```

mod context;
mod count;
mod encode;
mod relation;

pub use context::{SymbolicContext, VarId, VarInfo};
pub use ftrepair_bdd::{Manager, NodeId, FALSE, TRUE};
