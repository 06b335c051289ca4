//! Recursive-descent parser for the guarded-command language.

use crate::ast::*;
use crate::lexer::{lex, LexError, Token, TokenKind};

/// Syntax error with byte position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Description.
    pub message: String,
    /// Byte offset into the source (`usize::MAX` = end of input).
    pub pos: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.pos == usize::MAX {
            write!(f, "{} at end of input", self.message)
        } else {
            write!(f, "{} at byte {}", self.message, self.pos)
        }
    }
}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { message: e.message, pos: e.pos }
    }
}

/// Parse a full source file.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    p.program()
}

/// Maximum depth of an expression: the operators on any path from its
/// root to a leaf, and separately the parentheses open at any point of
/// its text. Every walker of the AST (this parser, [`crate::unparse()`], the
/// compiler, `Debug`, `Drop`) recurses once per level, so without a bound a
/// few kilobytes of `(`s, `!`s or `a & a & …` in an untrusted spec
/// overflow a worker's stack and abort the process, where hostile input
/// must get an error. At 256 levels every walker fits a
/// [`WORKER_STACK_SIZE`] thread stack, and the canonical text
/// [`crate::unparse()`] prints opens at most one parenthesis per operator,
/// so it parses back under the same bound.
pub const MAX_EXPR_DEPTH: usize = 256;

/// The stack, in bytes, that [`MAX_EXPR_DEPTH`] is argued for: 2 MiB, the
/// default size of a spawned thread. A thread that handles untrusted specs
/// asks for it explicitly, because `RUST_MIN_STACK` sets the default and
/// could shrink it below what the bound needs.
pub const WORKER_STACK_SIZE: usize = 2 << 20;

/// An expression and its depth (operators on its longest path).
type Parsed = (Expr, usize);

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Parentheses open at the current token (see [`MAX_EXPR_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn here(&self) -> usize {
        self.tokens.get(self.pos).map_or(usize::MAX, |t| t.pos)
    }

    fn bump(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(kind) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError { message, pos: self.here() }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek() {
            Some(TokenKind::Ident(name)) => {
                let name = name.clone();
                self.pos += 1;
                Ok(name)
            }
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        self.expect(&TokenKind::KwProgram, "`program`")?;
        let name = self.ident("program name")?;
        self.expect(&TokenKind::Semi, "`;` after program name")?;
        let mut prog = Program {
            name,
            vars: Vec::new(),
            processes: Vec::new(),
            faults: Vec::new(),
            invariants: Vec::new(),
            bad_states: Vec::new(),
            bad_trans: Vec::new(),
            leads_to: Vec::new(),
        };
        while let Some(kind) = self.peek() {
            match kind {
                TokenKind::KwVar => prog.vars.push(self.var_decl()?),
                TokenKind::KwProcess => prog.processes.push(self.process_decl()?),
                TokenKind::KwFault => prog.faults.push(self.fault_decl()?),
                TokenKind::KwInvariant => {
                    self.pos += 1;
                    let e = self.expr()?;
                    self.expect(&TokenKind::Semi, "`;` after invariant")?;
                    prog.invariants.push(e);
                }
                TokenKind::KwBadStates => {
                    self.pos += 1;
                    let e = self.expr()?;
                    self.expect(&TokenKind::Semi, "`;` after badstates")?;
                    prog.bad_states.push(e);
                }
                TokenKind::KwBadTrans => {
                    self.pos += 1;
                    let e = self.expr()?;
                    self.expect(&TokenKind::Semi, "`;` after badtrans")?;
                    prog.bad_trans.push(e);
                }
                TokenKind::KwLeadsTo => {
                    self.pos += 1;
                    let l = self.expr()?;
                    self.expect(&TokenKind::FatArrow, "`=>` in leadsto")?;
                    let t = self.expr()?;
                    self.expect(&TokenKind::Semi, "`;` after leadsto")?;
                    prog.leads_to.push((l, t));
                }
                _ => return Err(self.err("expected a declaration".into())),
            }
        }
        Ok(prog)
    }

    fn var_decl(&mut self) -> Result<VarDecl, ParseError> {
        self.expect(&TokenKind::KwVar, "`var`")?;
        let name = self.ident("variable name")?;
        self.expect(&TokenKind::Colon, "`:` in variable declaration")?;
        let (lo, hi) = match self.peek() {
            Some(TokenKind::KwBoolean) => {
                self.pos += 1;
                (0, 1)
            }
            Some(TokenKind::Int(lo)) => {
                let lo = *lo;
                self.pos += 1;
                self.expect(&TokenKind::DotDot, "`..` in range")?;
                match self.bump() {
                    Some(TokenKind::Int(hi)) => (lo, hi),
                    _ => return Err(self.err("expected range upper bound".into())),
                }
            }
            _ => return Err(self.err("expected `boolean` or a range".into())),
        };
        self.expect(&TokenKind::Semi, "`;` after variable declaration")?;
        Ok(VarDecl { name, lo, hi })
    }

    fn ident_list(&mut self) -> Result<Vec<String>, ParseError> {
        let mut out = vec![self.ident("variable name")?];
        while self.peek() == Some(&TokenKind::Comma) {
            self.pos += 1;
            out.push(self.ident("variable name")?);
        }
        Ok(out)
    }

    fn process_decl(&mut self) -> Result<ProcessDecl, ParseError> {
        self.expect(&TokenKind::KwProcess, "`process`")?;
        let name = self.ident("process name")?;
        self.expect(&TokenKind::KwRead, "`read`")?;
        let read = self.ident_list()?;
        self.expect(&TokenKind::Semi, "`;` after read list")?;
        self.expect(&TokenKind::KwWrite, "`write`")?;
        let write = self.ident_list()?;
        self.expect(&TokenKind::Semi, "`;` after write list")?;
        let actions = self.action_block()?;
        Ok(ProcessDecl { name, read, write, actions })
    }

    fn fault_decl(&mut self) -> Result<FaultDecl, ParseError> {
        self.expect(&TokenKind::KwFault, "`fault`")?;
        let name = match self.peek() {
            Some(TokenKind::Ident(_)) => self.ident("fault name")?,
            _ => String::from("fault"),
        };
        let actions = self.action_block()?;
        Ok(FaultDecl { name, actions })
    }

    fn action_block(&mut self) -> Result<Vec<Action>, ParseError> {
        self.expect(&TokenKind::KwBegin, "`begin`")?;
        let mut actions = Vec::new();
        while self.peek() != Some(&TokenKind::KwEnd) {
            actions.push(self.action()?);
        }
        self.pos += 1; // consume `end`
        Ok(actions)
    }

    fn action(&mut self) -> Result<Action, ParseError> {
        let guard = self.expr()?;
        self.expect(&TokenKind::Arrow, "`->` after guard")?;
        let mut assigns = vec![self.assign()?];
        while self.peek() == Some(&TokenKind::Comma) {
            self.pos += 1;
            assigns.push(self.assign()?);
        }
        self.expect(&TokenKind::Semi, "`;` after action")?;
        Ok(Action { guard, assigns })
    }

    fn assign(&mut self) -> Result<Assign, ParseError> {
        let target = self.ident("assignment target")?;
        self.expect(&TokenKind::Assign, "`:=`")?;
        let choices = if self.peek() == Some(&TokenKind::LBrace) {
            self.pos += 1;
            let mut cs = vec![self.expr()?];
            while self.peek() == Some(&TokenKind::Comma) {
                self.pos += 1;
                cs.push(self.expr()?);
            }
            self.expect(&TokenKind::RBrace, "`}` after choice list")?;
            cs
        } else {
            vec![self.expr()?]
        };
        Ok(Assign { target, choices })
    }

    // Expression precedence: | < & < ! < cmp < +,- < atom. Each level
    // returns its expression with its depth (see [`MAX_EXPR_DEPTH`]).
    fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.or_expr()?.0)
    }

    fn too_deep(&self) -> ParseError {
        self.err(format!(
            "expression nesting exceeds {MAX_EXPR_DEPTH} levels; simplify the expression"
        ))
    }

    /// `op` over two operands, refused when it would be deeper than
    /// [`MAX_EXPR_DEPTH`]: a chain `a & b & …` nests one level per term.
    fn join(
        &self,
        op: impl FnOnce(Box<Expr>, Box<Expr>) -> Expr,
        (lhs, l): Parsed,
        (rhs, r): Parsed,
    ) -> Result<Parsed, ParseError> {
        let depth = 1 + l.max(r);
        if depth > MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        Ok((op(Box::new(lhs), Box::new(rhs)), depth))
    }

    fn or_expr(&mut self) -> Result<Parsed, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.peek() == Some(&TokenKind::Or) {
            self.pos += 1;
            let rhs = self.and_expr()?;
            lhs = self.join(Expr::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Parsed, ParseError> {
        let mut lhs = self.not_expr()?;
        while self.peek() == Some(&TokenKind::And) {
            self.pos += 1;
            let rhs = self.not_expr()?;
            lhs = self.join(Expr::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Parsed, ParseError> {
        // A run of `!`s is counted, not recursed into.
        let mut bangs = 0;
        while self.peek() == Some(&TokenKind::Not) {
            self.pos += 1;
            bangs += 1;
        }
        let (mut e, depth) = self.cmp_expr()?;
        if depth + bangs > MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        for _ in 0..bangs {
            e = Expr::Not(Box::new(e));
        }
        Ok((e, depth + bangs))
    }

    fn cmp_expr(&mut self) -> Result<Parsed, ParseError> {
        let lhs = self.sum_expr()?;
        let op = match self.peek() {
            Some(TokenKind::Eq) => CmpOp::Eq,
            Some(TokenKind::Neq) => CmpOp::Neq,
            Some(TokenKind::Lt) => CmpOp::Lt,
            Some(TokenKind::Le) => CmpOp::Le,
            Some(TokenKind::Gt) => CmpOp::Gt,
            Some(TokenKind::Ge) => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.sum_expr()?;
        self.join(|l, r| Expr::Cmp(op, l, r), lhs, rhs)
    }

    fn sum_expr(&mut self) -> Result<Parsed, ParseError> {
        let mut lhs = self.atom()?;
        loop {
            let op: fn(Box<Expr>, Box<Expr>) -> Expr = match self.peek() {
                Some(TokenKind::Plus) => Expr::Add,
                Some(TokenKind::Minus) => Expr::Sub,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.atom()?;
            lhs = self.join(op, lhs, rhs)?;
        }
    }

    fn atom(&mut self) -> Result<Parsed, ParseError> {
        let leaf = match self.bump() {
            Some(TokenKind::Int(v)) => Expr::Int(v),
            Some(TokenKind::KwTrue) => Expr::Bool(true),
            Some(TokenKind::KwFalse) => Expr::Bool(false),
            Some(TokenKind::Ident(name)) => {
                if self.peek() == Some(&TokenKind::Prime) {
                    self.pos += 1;
                    Expr::Primed(name)
                } else {
                    Expr::Var(name)
                }
            }
            Some(TokenKind::LParen) => {
                // Parentheses add no AST level, but each recurses through
                // every precedence level above, so they are bounded too.
                self.depth += 1;
                if self.depth > MAX_EXPR_DEPTH {
                    return Err(self.too_deep());
                }
                let inner = self.or_expr();
                self.depth -= 1;
                let inner = inner?;
                self.expect(&TokenKind::RParen, "`)`")?;
                return Ok(inner);
            }
            _ => {
                self.pos -= 1;
                return Err(self.err("expected an expression".into()));
            }
        };
        Ok((leaf, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: &str = r#"
    program toggle;
    var x : 0..2;
    var y : boolean;
    process p
      read x, y;
      write x;
    begin
      (x = 0) & (y = 1) -> x := 1;
      (x = 1) -> x := {0, 2};
    end
    fault hit
    begin
      (x = 1) -> x := 2;
    end
    invariant (x = 0) | (x = 1);
    badstates (x = 2) & (y = 0);
    badtrans (x = 1) & (x' = 0);
    "#;

    #[test]
    fn parses_full_program() {
        let p = parse(TOY).unwrap();
        assert_eq!(p.name, "toggle");
        assert_eq!(p.vars.len(), 2);
        assert_eq!(p.vars[0], VarDecl { name: "x".into(), lo: 0, hi: 2 });
        assert_eq!(p.vars[1], VarDecl { name: "y".into(), lo: 0, hi: 1 });
        assert_eq!(p.processes.len(), 1);
        assert_eq!(p.processes[0].read, vec!["x", "y"]);
        assert_eq!(p.processes[0].write, vec!["x"]);
        assert_eq!(p.processes[0].actions.len(), 2);
        assert_eq!(p.faults.len(), 1);
        assert_eq!(p.invariants.len(), 1);
        assert_eq!(p.bad_states.len(), 1);
        assert_eq!(p.bad_trans.len(), 1);
    }

    #[test]
    fn choice_assignments() {
        let p = parse(TOY).unwrap();
        let a = &p.processes[0].actions[1];
        assert_eq!(a.assigns[0].choices.len(), 2);
    }

    #[test]
    fn primed_variables_parse() {
        let p = parse(TOY).unwrap();
        let primed_eq = matches!(
            &p.bad_trans[0],
            Expr::And(_, rhs) if matches!(
                rhs.as_ref(),
                Expr::Cmp(CmpOp::Eq, l, _) if **l == Expr::Primed("x".into())
            )
        );
        assert!(primed_eq, "unexpected {:?}", p.bad_trans[0]);
    }

    #[test]
    fn operator_precedence() {
        let p = parse("program t; invariant a = 1 | b = 2 & c = 3;").unwrap();
        // | binds loosest: Or(a=1, And(b=2, c=3)).
        let or_of_and =
            matches!(&p.invariants[0], Expr::Or(_, rhs) if matches!(rhs.as_ref(), Expr::And(_, _)));
        assert!(or_of_and, "unexpected {:?}", p.invariants[0]);
    }

    #[test]
    fn arithmetic_parses() {
        let p = parse("program t; invariant x + 1 = y - 2;").unwrap();
        assert!(matches!(&p.invariants[0], Expr::Cmp(CmpOp::Eq, _, _)));
    }

    #[test]
    fn missing_semicolon_is_reported() {
        let e = parse("program t").unwrap_err();
        assert!(e.message.contains("`;`"));
        assert_eq!(e.pos, usize::MAX);
    }

    #[test]
    fn garbage_reports_position() {
        let e = parse("program t; var x : boolean; process").unwrap_err();
        assert!(e.message.contains("process name"));
    }

    #[test]
    fn anonymous_fault_section() {
        let p = parse("program t; fault begin true -> x := 1; end").unwrap();
        assert_eq!(p.faults[0].name, "fault");
    }

    #[test]
    fn multiple_assignments_in_action() {
        let p = parse("program t; fault begin true -> x := 1, y := 0; end").unwrap();
        assert_eq!(p.faults[0].actions[0].assigns.len(), 2);
    }

    /// Network-facing robustness: arbitrary malformed input must come back
    /// as `Err(ParseError)`, never panic a server worker.
    #[test]
    fn adversarial_inputs_error_instead_of_panicking() {
        let cases = [
            "",
            ";",
            "program",
            "program ;",
            "program t; var x :",
            "program t; var x : 5",
            "program t; var x : 0..",
            "program t; var x : 99999999999999999999999999;",
            "program t; process p read",
            "program t; process p read x; write x; begin",
            "program t; process p read x; write x; begin (x = 0) ->",
            "program t; process p read x; write x; begin x := 1; end",
            "program t; fault begin true -> x := {1, ; end",
            "program t; invariant (((((",
            "program t; invariant x = ;",
            "program t; badtrans x' ' ';",
            "program t; leadsto x = 1;",
            "program t; invariant x + + 1 = 2;",
            "end end end",
        ];
        for src in cases {
            assert!(parse(src).is_err(), "accepted malformed input {src:?}");
        }
    }

    /// Nesting past [`MAX_EXPR_DEPTH`] must come back as a parse error,
    /// not a stack overflow: the daemon feeds untrusted specs straight
    /// into this parser, and `SIGSEGV` is not a recoverable 400.
    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        let bombs = [
            // 100k parens would blow an 8 MiB stack many times over.
            format!("program t; invariant {}true{};", "(".repeat(100_000), ")".repeat(100_000)),
            // `!` recurses on a different path than `(`.
            format!("program t; invariant {}true;", "!".repeat(100_000)),
            // Unclosed nesting still descends all the way down.
            format!("program t; invariant {}", "(".repeat(100_000)),
            // A chain nests one level per term without any parenthesis.
            format!("program t; invariant {};", vec!["a = 1"; 100_000].join(" & ")),
        ];
        for src in &bombs {
            let err = parse(src).expect_err("depth bomb must be rejected");
            assert!(err.message.contains("nesting exceeds"), "unexpected error: {}", err.message);
        }
    }

    /// Expressions `depth` levels deep, one per way of nesting: chains of
    /// `&`, `|`, `+` and `-`, a run of `!`, and parentheses around them.
    fn at_depth(depth: usize) -> Vec<String> {
        let chain = |op: &str| vec!["a = 1"; depth].join(op);
        let sum = |op: &str| format!("{} = 1", vec!["a"; depth].join(op));
        let exprs = [
            chain(" & "),
            chain(" | "),
            sum(" + "),
            sum(" - "),
            format!("{}a = 1", "!".repeat(depth - 1)),
            format!("{}a = 1{}", "(".repeat(depth), ")".repeat(depth)),
        ];
        exprs.map(|e| format!("program t; var a : 0..1; invariant {e};")).to_vec()
    }

    /// Every walker of an expression (parse, unparse, compile, `Debug`,
    /// `Drop`) recurses once per level. At the bound they all fit the
    /// [`WORKER_STACK_SIZE`] stack a daemon worker has, and the canonical
    /// text parses back to the same AST; one level deeper, the parser
    /// refuses the spec.
    #[test]
    fn the_depth_bound_fits_a_worker_stack_and_round_trips() {
        let worker = std::thread::Builder::new().stack_size(WORKER_STACK_SIZE).spawn(|| {
            for src in at_depth(MAX_EXPR_DEPTH) {
                let ast = parse(&src).unwrap_or_else(|e| panic!("{e}: {src}"));
                let canonical = crate::unparse(&ast);
                assert_eq!(parse(&canonical).as_ref(), Ok(&ast), "{canonical}");
                assert!(format!("{ast:?}").contains("Cmp"));
                crate::compile(&ast).unwrap();
            }
            for src in at_depth(MAX_EXPR_DEPTH + 1) {
                let err = parse(&src).expect_err("one level past the bound");
                assert!(err.message.contains("nesting exceeds"), "{}: {src}", err.message);
            }
        });
        worker.unwrap().join().unwrap();
    }

    /// The limit must not reject plausibly-deep human input.
    #[test]
    fn reasonable_nesting_still_parses() {
        let depth = 64;
        let src = format!("program t; invariant {}x = 1{};", "(".repeat(depth), ")".repeat(depth));
        parse(&src).expect("64 levels of parens is legitimate input");
    }
}
