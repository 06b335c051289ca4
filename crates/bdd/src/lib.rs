//! # ftrepair-bdd — a from-scratch ROBDD engine
//!
//! Reduced Ordered Binary Decision Diagrams are the symbolic substrate of the
//! lazy-repair tool: program transition relations, invariants, fault-spans and
//! read-restriction *groups* are all boolean functions over a few hundred
//! variables, and every fixpoint in the repair algorithms is a loop of BDD
//! operations.
//!
//! The engine is deliberately classical:
//!
//! * a flat node arena with a hash-consing *unique table* (one
//!   open-addressed subtable of arena indices per level) guaranteeing
//!   canonicity (structural equality ⇔ pointer equality),
//! * `NOT`/`AND`/`OR`/`XOR`/`ITE` memoized, like every recursive operation,
//!   in one bounded, lossy *computed table*,
//! * set-quantification (`exists`/`forall`) over interned variable sets,
//! * fused relational products (`and_exists`) with early termination — the
//!   workhorse of image/preimage computation,
//! * order-preserving variable renaming (used to map next-state variables back
//!   to current-state variables),
//! * edge-valued *rank diagrams* and the rank-descent product
//!   ([`Manager::rank_descent`]): the steps of a relation that lower a
//!   rank given by a sequence of sets, in one recursion,
//! * sat-counting, deterministic minterm picking and cube iteration, plus a
//!   read-only cofactor step ([`Manager::branch`]) for walks down the levels,
//! * one fixed variable order: the variable index is the level,
//! * mark-and-sweep garbage collection with stable node ids, plus a
//!   checkpoint trigger that collects once the arena doubles
//!   ([`Manager::maybe_gc`]),
//! * a portable serialized DAG form ([`SerializedBdd`]) used to ship BDDs
//!   between managers (e.g. from the disk store or a checkpoint into a new
//!   job's manager); it records the source variable order, so blobs written
//!   in another order still import.
//!
//! There are **no complemented edges**: plain canonical nodes keep invariants
//! simple enough to property-test exhaustively against a truth-table oracle
//! (see `tests/`).
//!
//! ## Quick example
//!
//! ```
//! use ftrepair_bdd::Manager;
//!
//! let mut m = Manager::new(3);
//! let (a, b, c) = (m.var(0), m.var(1), m.var(2));
//! let f = m.and(a, b);
//! let g = m.or(f, c);
//! assert_eq!(m.sat_count(g), 5.0); // a∧b ∨ c has 5 satisfying assignments
//! ```

mod cache;
mod dump;
mod hash;
mod manager;
mod node;
mod ops;
mod quant;
mod rank;
mod rename;
pub mod rng;
mod sat;
mod unique;

pub use dump::{DecodeError, ImportError, SerializedBdd};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use manager::{CacheCounter, CacheStats, Manager, ManagerStats};
pub use node::{NodeId, FALSE, TRUE};
pub use quant::VarSetId;
pub use rank::RankDiagram;
pub use rename::VarMapId;
pub use rng::SplitMix64;
pub use sat::CubeIter;
