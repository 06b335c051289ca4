//! # ftrepair-lang — a guarded-command input language
//!
//! Tools in this family (FTSyn, SYCRAFT) accept distributed programs as
//! text. This crate provides a small language in that tradition and a
//! compiler onto [`ftrepair_program::ProgramBuilder`], so programs are
//! written as text instead of Rust (the paper's case studies too: the
//! `ftrepair-casestudies` generators print text that this crate compiles):
//!
//! ```text
//! program toggle;
//!
//! var x : 0..2;
//! var y : boolean;
//!
//! process p
//!   read x, y;
//!   write x;
//! begin
//!   (x = 0) & (y = 1) -> x := 1;
//!   (x = 1)           -> x := {0, 2};   // nondeterministic choice
//! end
//!
//! fault hit
//! begin
//!   (x = 1) -> x := 2;
//! end
//!
//! invariant (x = 0) | (x = 1);
//! badstates (x = 2) & (y = 0);
//! badtrans  (x = 1) & (x' = 0);         // primed = next-state value
//! ```
//!
//! Expressions support `| & !`, comparisons (`= != < <= > >=`), `+`/`-`
//! on finite-domain values, parentheses, `true`/`false`, and primed
//! variables (`x'`) inside `badtrans` sections. Assignment right-hand
//! sides are arbitrary expressions (evaluated in the pre-state) or
//! `{e1, …, ek}` nondeterministic choices.
//!
//! Everything is compiled symbolically: an expression becomes a
//! *value-indexed family of BDDs* (`value ↦ condition`), so guards and
//! relational assignments cost a handful of BDD operations each.

pub mod ast;
pub mod compile;
pub mod lexer;
pub mod parser;
pub mod unparse;

pub use compile::{compile, CompileError};
pub use parser::{parse, ParseError};
pub use unparse::unparse;

/// Parse and compile a source text into a ready-to-repair program.
///
/// ```
/// let src = r#"
/// program tiny;
/// var x : boolean;
/// process p read x; write x; begin (x = 0) -> x := 1; end
/// invariant true;
/// "#;
/// let prog = ftrepair_lang::load(src).unwrap();
/// assert_eq!(prog.processes.len(), 1);
/// ```
pub fn load(src: &str) -> Result<ftrepair_program::DistributedProgram, LoadError> {
    let ast = parse(src).map_err(LoadError::Parse)?;
    compile(&ast).map_err(LoadError::Compile)
}

/// Error from [`load`]: either parsing or compilation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Syntax error.
    Parse(ParseError),
    /// Semantic error (unknown variable, out-of-domain value, …).
    Compile(CompileError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Parse(e) => write!(f, "parse error: {e}"),
            LoadError::Compile(e) => write!(f, "compile error: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}
